"""Per-rule coverage for reprolint: each RPLxxx catches its bad pattern and
stays quiet on the corresponding good idiom, including the path-policy and
lexical (no_grad / __init__) exemptions."""

import pathlib

import pytest

from repro.analysis.lint import DEFAULT_CONFIG, LintConfig, known_codes, lint_file, lint_source

# Fixtures sit under tests/, which the default policy exempts from the
# randomness rules; strict config lifts that so fixtures lint like library code.
STRICT = LintConfig(exempt_paths=())

MODEL_PATH = "src/repro/models/mod.py"
NEUTRAL_PATH = "src/repro/facility/mod.py"

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint" / "models"


def codes(source, path=MODEL_PATH, config=STRICT):
    return [f.code for f in lint_source(source, path=path, config=config)]


# ----------------------------------------------------------------- RPL001/002
class TestRandomness:
    def test_legacy_global_call_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(src) == ["RPL001"]

    def test_global_seed_flagged(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert codes(src) == ["RPL001"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(src) == ["RPL001"]

    def test_bare_reference_flagged_once(self):
        src = "import numpy as np\nshuffler = np.random.shuffle\n"
        assert codes(src) == ["RPL001"]

    def test_import_alias_resolved(self):
        src = "import numpy.random as npr\nx = npr.randint(0, 10)\n"
        assert codes(src) == ["RPL001"]

    def test_seeded_generator_methods_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random(3)\n"
        assert codes(src) == []

    def test_exempt_path_skips_randomness_rules(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert codes(src, path="tests/test_mod.py", config=DEFAULT_CONFIG) == []

    def test_hardcoded_seed_in_function_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(n):\n"
            "    return np.random.default_rng(0xC0FFEE).random(n)\n"
        )
        assert codes(src) == ["RPL002"]

    def test_rng_parameter_allows_seeded_construction(self):
        src = (
            "import numpy as np\n"
            "def f(n, rng):\n"
            "    return np.random.default_rng(7).random(n)\n"
        )
        assert codes(src) == []

    def test_nonconstant_seed_expression_allowed(self):
        src = (
            "import numpy as np\n"
            "def f(self, u):\n"
            "    return np.random.default_rng(self._root_seed + int(u))\n"
        )
        assert codes(src) == []

    def test_module_level_seeded_rng_allowed(self):
        # Deliberate, visible module-level tables are outside RPL002's scope.
        src = "import numpy as np\n_TABLE = np.random.default_rng(3).random(8)\n"
        assert codes(src) == []


# --------------------------------------------------------------------- RPL003
class TestWallClock:
    def test_time_time_flagged_in_models(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert codes(src) == ["RPL003"]

    def test_datetime_now_flagged(self):
        src = "import datetime\ndef f():\n    return datetime.datetime.now()\n"
        assert codes(src) == ["RPL003"]

    def test_perf_counter_allowed(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert codes(src) == []

    def test_telemetry_paths_unrestricted(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert codes(src, path="src/repro/utils/telemetry.py") == []


# --------------------------------------------------------------------- RPL004
class TestDtypeHygiene:
    def test_implicit_dtype_flagged(self):
        src = "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"
        assert codes(src) == ["RPL004"]

    def test_keyword_dtype_clean(self):
        src = "import numpy as np\ndef f(n):\n    return np.zeros(n, dtype=np.float64)\n"
        assert codes(src) == []

    def test_positional_dtype_clean(self):
        src = "import numpy as np\ndef f(n):\n    return np.full(n, 0.0, np.float32)\n"
        assert codes(src) == []

    def test_like_constructors_clean(self):
        src = "import numpy as np\ndef f(x):\n    return np.zeros_like(x)\n"
        assert codes(src) == []

    def test_rule_scoped_to_dtype_paths(self):
        src = "import numpy as np\ndef f(n):\n    return np.zeros(n)\n"
        assert codes(src, path=NEUTRAL_PATH) == []

    def test_arange_flagged(self):
        src = "import numpy as np\ndef f(n):\n    return np.arange(n)\n"
        assert codes(src) == ["RPL004"]


# --------------------------------------------------------------------- RPL005
class TestNoPickle:
    def test_import_pickle_flagged(self):
        assert codes("import pickle\n") == ["RPL005"]

    def test_from_pickle_import_flagged(self):
        assert codes("from pickle import loads\n") == ["RPL005"]

    # np.save is pinned to the persistence funnel so RPL009 stays out of the
    # way and these assert RPL005 in isolation.
    def test_allow_pickle_true_flagged(self):
        src = "import numpy as np\ndef f(p, a):\n    np.save(p, a, allow_pickle=True)\n"
        assert codes(src, path="src/repro/io/mod.py") == ["RPL005"]

    def test_allow_pickle_false_clean(self):
        src = "import numpy as np\ndef f(p, a):\n    np.save(p, a, allow_pickle=False)\n"
        assert codes(src, path="src/repro/io/mod.py") == []


# --------------------------------------------------------------------- RPL006
class TestMutableDefaults:
    def test_list_default_flagged(self):
        assert codes("def f(x=[]):\n    return x\n") == ["RPL006"]

    def test_dict_kwonly_default_flagged(self):
        assert codes("def f(*, x={}):\n    return x\n") == ["RPL006"]

    def test_lambda_default_flagged(self):
        assert codes("g = lambda x=[]: x\n") == ["RPL006"]

    def test_constructor_call_default_flagged(self):
        assert codes("def f(x=dict()):\n    return x\n") == ["RPL006"]

    def test_none_default_clean(self):
        assert codes("def f(x=None):\n    return x or []\n") == []


# --------------------------------------------------------------------- RPL007
class TestTensorDataMutation:
    def test_augmented_mutation_flagged(self):
        src = "def f(t):\n    t.data += 1\n"
        assert codes(src) == ["RPL007"]

    def test_slice_assignment_flagged(self):
        src = "def f(t, a):\n    t.data[...] = a\n"
        assert codes(src) == ["RPL007"]

    def test_no_grad_block_exempt(self):
        src = (
            "from repro.autograd import no_grad\n"
            "def f(t, a):\n"
            "    with no_grad():\n"
            "        t.data[...] = a\n"
        )
        assert codes(src) == []

    def test_init_attribute_construction_exempt(self):
        src = (
            "class T:\n"
            "    def __init__(self, a):\n"
            "        self.data = a\n"
        )
        assert codes(src) == []

    def test_init_exemption_only_covers_self(self):
        src = (
            "class T:\n"
            "    def __init__(self, other, a):\n"
            "        other.data = a\n"
        )
        assert codes(src) == ["RPL007"]


# --------------------------------------------------------------------- RPL008
class TestDenseScatterGrad:
    GRAD_PATH = "src/repro/autograd/mod.py"

    def test_add_at_in_gradient_engine_flagged(self):
        src = "import numpy as np\nnp.add.at(buf, idx, grad)\n"
        assert codes(src, path=self.GRAD_PATH) == ["RPL008"]

    def test_alias_resolved(self):
        src = "import numpy\nnumpy.add.at(buf, idx, grad)\n"
        assert codes(src, path=self.GRAD_PATH) == ["RPL008"]

    def test_quiet_outside_gradient_engine(self):
        src = "import numpy as np\nnp.add.at(buf, idx, grad)\n"
        assert codes(src, path=NEUTRAL_PATH) == []
        assert codes(src, path=MODEL_PATH) == []

    def test_suppression_comment_honored(self):
        src = "import numpy as np\nnp.add.at(buf, idx, grad)  # reprolint: disable=RPL008\n"
        assert codes(src, path=self.GRAD_PATH) == []

    def test_reduceat_coalescing_clean(self):
        src = "import numpy as np\nout = np.add.reduceat(vals, starts, axis=0)\n"
        assert codes(src, path=self.GRAD_PATH) == []


# --------------------------------------------------------------------- RPL009
class TestAdHocPersistence:
    def test_savez_outside_funnel_flagged(self):
        src = "import numpy as np\nnp.savez(path, a=arr)\n"
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009"]

    def test_load_outside_funnel_flagged(self):
        src = "import numpy as np\narrs = np.load(path)\n"
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009"]

    def test_savez_compressed_and_save_flagged(self):
        src = (
            "import numpy as np\n"
            "np.save(path, arr)\n"
            "np.savez_compressed(path, a=arr)\n"
        )
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009", "RPL009"]

    def test_alias_resolved(self):
        src = "import numpy\nnumpy.load(path)\n"
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009"]

    def test_io_funnel_allowed(self):
        src = "import numpy as np\nnp.savez(path, a=arr)\nnp.load(path)\n"
        assert codes(src, path="src/repro/io/checkpoints.py") == []

    def test_store_funnel_allowed(self):
        src = "import numpy as np\nnp.save(path, arr)\nnp.load(path, mmap_mode='r')\n"
        assert codes(src, path="src/repro/store/artifacts.py") == []

    def test_memmap_family_flagged(self):
        src = (
            "import numpy as np\n"
            "buf = np.memmap(path, dtype=np.int64, mode='r')\n"
            "raw = np.fromfile(path, dtype=np.int64)\n"
        )
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009", "RPL009"]

    def test_open_memmap_flagged(self):
        src = "import numpy as np\narr = np.lib.format.open_memmap(path, mode='r')\n"
        assert codes(src, path=NEUTRAL_PATH) == ["RPL009"]

    def test_memmap_family_allowed_in_funnel(self):
        src = (
            "import numpy as np\n"
            "buf = np.memmap(path, dtype=np.int64, mode='r')\n"
            "arr = np.lib.format.open_memmap(path, mode='r')\n"
        )
        assert codes(src, path="src/repro/store/artifacts.py") == []

    def test_exempt_path_skips_rule(self):
        src = "import numpy as np\nnp.load(path)\n"
        assert codes(src, path="tests/test_mod.py", config=DEFAULT_CONFIG) == []

    def test_suppression_comment_honored(self):
        src = "import numpy as np\nnp.load(path)  # reprolint: disable=RPL009\n"
        assert codes(src, path=NEUTRAL_PATH) == []

    def test_unrelated_numpy_calls_clean(self):
        src = "import numpy as np\nx = np.zeros(3, dtype=np.float64)\nnp.savetxt\n"
        assert codes(src, path=NEUTRAL_PATH) == []


# ---------------------------------------------------------------------- RPL015
class TestOptimizerFunnel:
    def test_optimizer_import_in_models_flagged(self):
        src = "from repro.autograd import Adam\n"
        assert codes(src) == ["RPL015"]

    def test_optim_module_import_flagged(self):
        src = "from repro.autograd.optim import adam_update\n"
        assert codes(src) == ["RPL015"]

    def test_step_call_on_optimizer_name_flagged(self):
        src = "def f(optimizer):\n    optimizer.step()\n"
        assert codes(src) == ["RPL015"]

    def test_zero_grad_on_self_attr_flagged(self):
        src = "class M:\n    def g(self):\n        self.optim.zero_grad()\n"
        assert codes(src) == ["RPL015"]

    def test_engine_step_callable_clean(self):
        src = (
            "def extra_epoch_step(self, step, rng, config):\n"
            "    return step(lambda: self.loss(rng))\n"
        )
        assert codes(src) == []

    def test_non_optimizer_step_clean(self):
        src = "def f(scheduler):\n    scheduler.step()\n"
        assert codes(src) == []

    def test_other_autograd_imports_clean(self):
        src = "from repro.autograd import Parameter, Tensor, no_grad\n"
        assert codes(src) == []

    def test_outside_model_paths_clean(self):
        src = "from repro.autograd import Adam\ndef f(optimizer):\n    optimizer.step()\n"
        assert codes(src, path="src/repro/train/engine.py") == []

    def test_suppression_honored(self):
        src = "from repro.autograd import Adam  # reprolint: disable=RPL015\n"
        assert codes(src) == []


# ------------------------------------------------------------------- fixtures
BAD_FIXTURES = {
    "bad_randomness.py": {"RPL001", "RPL002"},
    "bad_wallclock.py": {"RPL003"},
    "bad_dtype.py": {"RPL004"},
    "bad_serialization.py": {"RPL005", "RPL009"},
    "bad_defaults.py": {"RPL006"},
    "bad_tensor_data.py": {"RPL007"},
}

GOOD_FIXTURES = [
    "good_randomness.py",
    "good_wallclock.py",
    "good_dtype.py",
    "good_tensor_data.py",
]


@pytest.mark.parametrize("name,expected", sorted(BAD_FIXTURES.items()))
def test_bad_fixture_caught(name, expected):
    found = {f.code for f in lint_file(FIXTURES / name, config=STRICT)}
    assert found == expected


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_good_fixture_clean(name):
    assert lint_file(FIXTURES / name, config=STRICT) == []


def test_suppressed_fixture_clean():
    assert lint_file(FIXTURES / "suppressed.py", config=STRICT) == []


# ------------------------------------------------------- planted at real sites
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: One bug per lexical rule, planted with a one-line edit at a real ``src/``
#: site: ``(code, file, shipped line, planted line, flagged line)``; lines
#: are compared stripped, and the finding lands on the planted line unless
#: a flagged line is named.  RPL013 needs the serving package's call graph;
#: its plants are in ``tests/test_lint_graph.py``.
PLANTS = [
    (
        "RPL001",
        "repro/kg/graph_analysis.py",
        "a, b = rng.choice(items, size=2, replace=False)",
        "a, b = np.random.choice(items, size=2, replace=False)",
        None,
    ),
    (
        "RPL002",
        "repro/models/ckat/model.py",
        "rng=self._dropout_rng,",
        "rng=np.random.default_rng(0),",
        None,
    ),
    (
        "RPL003",
        "repro/models/ripplenet.py",
        "rng = ensure_rng(seed)",
        "import time; rng = ensure_rng(int(time.time()))",
        None,
    ),
    (
        "RPL004",
        "repro/models/ckat/layers.py",
        "return F.astensor(np.zeros(0, dtype=entity_emb.dtype))",
        "return F.astensor(np.zeros(0))",
        None,
    ),
    (
        "RPL005",
        "repro/store/artifacts.py",
        "np.save(file_path, array, allow_pickle=False)",
        "np.save(file_path, array, allow_pickle=True)",
        None,
    ),
    (
        "RPL006",
        "repro/kg/triples.py",
        "def __init__(self, names: Sequence[str] = ()):",
        "def __init__(self, names: Sequence[str] = []):",
        None,
    ),
    (
        "RPL007",
        "repro/io/checkpoints.py",
        "with no_grad():",
        'with np.errstate(all="raise"):',
        "p.data[...] = arr",
    ),
    (
        "RPL008",
        "repro/autograd/functional.py",
        "out[nonempty] = np.add.reduceat(values.data, offsets[:-1][nonempty], axis=0)",
        "np.add.at(out, np.repeat(np.arange(num_segments, dtype=np.int64), lengths), values.data)",
        None,
    ),
    (
        "RPL009",
        "repro/serving/index.py",
        "return store.put(self.KIND, config, self.SCHEMA_VERSION, self._arrays(), meta=self.meta)",
        "return np.savez(store.root / 'index.npz', **self._arrays())",
        None,
    ),
    (
        "RPL010",
        "repro/autograd/ops.py",
        'dispatch = importlib.import_module("repro.kernels.dispatch")',
        "from repro.kernels import numpy_backend as dispatch",
        None,
    ),
    (
        "RPL015",
        "repro/models/bprmf.py",
        "from repro.autograd import Parameter, Tensor, xavier_uniform",
        "from repro.autograd import Adam, Parameter, Tensor, xavier_uniform",
        None,
    ),
]


def _line_of(lines, text):
    hits = [i for i, line in enumerate(lines) if line.strip() == text]
    assert len(hits) == 1, f"{text!r} is not one line of the shipped file"
    return hits[0]


@pytest.mark.parametrize(
    "code,rel,shipped,planted,flagged", PLANTS, ids=[p[0] for p in PLANTS]
)
def test_rule_flags_bug_planted_at_real_site(tmp_path, code, rel, shipped, planted, flagged):
    """A copy of a shipped file with one line edited gets exactly one
    finding: the rule's, at the bug.  With the rule deselected the copy
    lints clean, so no other rule catches the plant."""
    lines = (SRC / rel).read_text(encoding="utf-8").splitlines(keepends=True)
    i = _line_of(lines, shipped)
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + planted + "\n"
    target = tmp_path / "src" / rel
    target.parent.mkdir(parents=True)
    target.write_text("".join(lines), encoding="utf-8")
    line = (i if flagged is None else _line_of(lines, flagged)) + 1

    assert {(f.code, f.line) for f in lint_file(target)} == {(code, line)}
    others = LintConfig(select=frozenset(known_codes()) - {code})
    assert lint_file(target, config=others) == []
