import pytest

from binsparx.config import build_engine_config, load_run_config
from binsparx.errors import ConfigError


class TestSolverSection:
    def test_max_iter_reaches_engine(self):
        cfg = load_run_config(overrides=["solver.max_iter=37"])
        assert build_engine_config(cfg).solver_max_iter == 37

    def test_damping_is_unknown_in_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\ndamping = 0.5\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(path)

    def test_damping_is_unknown_as_override(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(overrides=["solver.damping=0.5"])


class TestRunSection:
    def test_workers_is_unknown_in_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nworkers = 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(path)

    def test_workers_is_unknown_as_override(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_run_config(overrides=["run.workers=2"])
