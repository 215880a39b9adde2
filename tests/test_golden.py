"""Golden-artifact check: every job in scripts/*.py reproduces artifacts/.

Each script's ``main`` is run with its output directory pointed at a
temporary path, and every file it writes is compared with the committed
copy: CSV headers exactly, numbers (in artifact units, as printed with
%.9g) and JSON values at rtol 1e-8 / atol 1e-5. The absolute part covers
``delta_km`` cells that cross zero.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACTS = ROOT / "artifacts"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
RTOL, ATOL = 1e-8, 1e-5


def _run_script(path: pathlib.Path, out: pathlib.Path) -> None:
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = out
    module.main()


def _read_csv(path: pathlib.Path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header, np.array([[float(c) for c in r.split(",")] for r in rows])


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, str):
        assert got == want, where
    else:
        np.testing.assert_allclose(np.asarray(got, float),
                                   np.asarray(want, float), rtol=RTOL,
                                   atol=ATOL, equal_nan=True, err_msg=where)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    for script in SCRIPTS:
        _run_script(script, out)
    return out


def test_scripts_write_every_committed_artifact(regenerated):
    written = sorted(p.name for p in regenerated.iterdir())
    committed = sorted(p.name for p in ARTIFACTS.iterdir())
    assert written == committed


@pytest.mark.parametrize("name", sorted(p.name for p in ARTIFACTS.iterdir()))
def test_artifact_matches_committed(regenerated, name):
    got, want = regenerated / name, ARTIFACTS / name
    if name.endswith(".csv"):
        got_header, got_rows = _read_csv(got)
        want_header, want_rows = _read_csv(want)
        assert got_header == want_header
        assert got_rows.shape == want_rows.shape
        _assert_close(got_rows, want_rows, name)
    else:
        _assert_close(json.loads(got.read_text(encoding="utf-8")),
                      json.loads(want.read_text(encoding="utf-8")), name)
