import numpy as np
import pytest

from qvolt.config import AnalysisSettings, RunConfig
from qvolt.model import NonlinearParams
from qvolt.signal import AcquisitionConfig, AcquisitionMode
from qvolt.sources import SourceSpec

PAPER_SOURCES = (
    SourceSpec("c1", 0.5, 60000),
    SourceSpec("q2", 0.99, 30000),
    SourceSpec("q3", 0.55, 10717),
)


def make_config(
    seed=20211101,
    eps_gamma=0.0,
    vs=-0.306e-9,
    sources=PAPER_SOURCES,
    mode=AcquisitionMode.FAST,
    drift_rate=0.0,
    mc_realizations=10_000,
):
    return RunConfig(
        seed=seed,
        sources=sources,
        params=NonlinearParams(eps_gamma=eps_gamma, vs=vs),
        acquisition=AcquisitionConfig(
            sigma_low=3.4e-9, sigma_high=1.8e-4, drift_rate=drift_rate, mode=mode
        ),
        analysis=AnalysisSettings(mc_realizations=mc_realizations),
    )


def scaled_sources(factor):
    """Paper source mix shrunk by `factor` for fast repeated-run tests."""
    return (
        SourceSpec("c1", 0.5, max(2, 60000 // factor)),
        SourceSpec("q2", 0.99, max(2, 30000 // factor)),
        SourceSpec("q3", 0.55, max(2, 10717 // factor)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
