import ast
from pathlib import Path

import numpy as np
import pytest

from stepturn.streams import stream

SRC = Path(__file__).resolve().parent.parent / "src" / "stepturn"

# generator and bit-generator constructors, and the legacy global seeding
CONSTRUCTORS = {"default_rng", "RandomState", "seed", "Generator", "SeedSequence",
                "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}


def _dotted(node):
    """``a.b.c`` of a call's function, or None when it is not a plain name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _generator_sources(tree):
    """Lines that import a random module or call a generator constructor."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in ("random", "numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("random", "numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names)):
                found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name and (".random." in f".{name}" or name.split(".")[-1] in CONSTRUCTORS):
                found.append((node.lineno, name))
    return found


class TestOneOwner:
    def test_only_streams_constructs_generators(self):
        modules = sorted(SRC.glob("*.py"))
        assert SRC / "streams.py" in modules
        offenders = {
            path.name: found for path in modules if path.name != "streams.py"
            if (found := _generator_sources(ast.parse(path.read_text())))
        }
        assert offenders == {}

    def test_scan_sees_each_kind_of_constructor(self):
        source = ("import numpy as np\nimport random\nfrom numpy.random import PCG64\n"
                  "np.random.default_rng(1)\nnp.random.seed(2)\nRandomState(3)\n"
                  "numpy.random.normal()\n")
        lines = sorted(line for line, _ in _generator_sources(ast.parse(source)))
        assert lines == [2, 3, 4, 5, 6, 7]

    def test_streams_module_constructs_them(self):
        found = _generator_sources(ast.parse((SRC / "streams.py").read_text()))
        assert [name for _, name in found] == ["np.random.default_rng"]


class TestStream:
    @pytest.mark.parametrize("seed", [0, 1, 7, 202, 2**40])
    def test_index_zero_draws_the_seeds_own_bits(self, seed):
        np.testing.assert_array_equal(stream(seed, 0).random(16),
                                      np.random.default_rng(seed).random(16))

    def test_tasks_and_bumps_draw_apart(self):
        firsts = [stream(5, index, bump).random() for index in range(4) for bump in range(3)]
        assert len(set(firsts)) == len(firsts)

    def test_negative_arguments_refused(self):
        for args in ((-1, 0), (0, -1), (0, 0, -1)):
            with pytest.raises(ValueError, match="must be non-negative"):
                stream(*args)
