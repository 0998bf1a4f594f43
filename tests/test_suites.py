import pytest

from afdm_pim.suites import run_suites


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites("chirp")
