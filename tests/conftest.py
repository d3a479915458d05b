import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def ssb_bench():
    from ibosmpf import reference_link

    return reference_link()


@pytest.fixture(scope="session")
def pm_bench():
    from ibosmpf import reference_link

    return reference_link(scheme_kind="pm", gamma=0.41)
