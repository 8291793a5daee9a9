import numpy as np

import _tablecache
from stepturn.inference import PriorSpec, SimConfig

TINY_PRIOR = PriorSpec()
TINY_SIM = SimConfig(dt=0.5, min_obs=20)
TINY_ROWS = 6
TINY_SEED = 3


def _tiny_path(version, seed=TINY_SEED):
    return _tablecache._path(_tablecache._key(TINY_PRIOR, TINY_SIM, TINY_ROWS, seed, version))


def _tiny_table():
    return _tablecache.cached_table(TINY_PRIOR, TINY_SIM, TINY_ROWS, TINY_SEED, workers=1)


class TestCachedTable:
    def test_superseded_versions_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_tablecache, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_tablecache, "SIMULATOR_VERSION", 3)
        stale = [_tiny_path(None), _tiny_path(1), _tiny_path(2)]
        other_config = _tiny_path(None, seed=TINY_SEED + 1)
        for path in stale + [other_config]:
            path.write_bytes(b"superseded")

        built = _tiny_table()

        current = _tiny_path(3)
        assert current.exists()
        assert not any(path.exists() for path in stale)
        assert other_config.exists()  # another configuration is left alone
        assert built.n_rows == TINY_ROWS

    def test_load_removes_superseded_and_keeps_current(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_tablecache, "CACHE_DIR", tmp_path)
        built = _tiny_table()
        current = _tiny_path(_tablecache.SIMULATOR_VERSION)
        stale = _tiny_path(None)
        stale.write_bytes(b"superseded")

        loaded = _tiny_table()

        assert not stale.exists()
        assert current.exists()
        np.testing.assert_array_equal(loaded.params, built.params)
        np.testing.assert_array_equal(loaded.summaries, built.summaries)

    def test_desk_key_unchanged(self):
        # the cached desk table stays valid: no rebuild is forced
        key = _tablecache._key(_tablecache.DESK_PRIOR, _tablecache.DESK_SIM,
                               _tablecache.DESK_N_SIMS, _tablecache.DESK_SEED, 1)
        assert key == "9a6e2d49bebad5ef"
