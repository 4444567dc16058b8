"""The block CSV writer writes the bytes of the row-at-a-time reference writer."""

import collections
import csv
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from csv_reference import write_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridfreq
import gridfreq.cli
from gridfreq.cli import _CSV_BLOCK_ROWS, _write_csv, build_plan, load_config, run_plan

BLOCK = _CSV_BLOCK_ROWS
NAN_NEG = float(np.copysign(np.nan, -1.0))
F64_SPECIAL = [
    np.nan, NAN_NEG, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300, 1e-300,
    -1e-300, 1.0, 0.1 + 0.2,
]
F32_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1.1754942e-38, 3.4028235e38, 1.0]
#: text that csv.writer must quote, or that needs more than one UTF-8 byte
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"\r\n ä€x'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
    ),
    max_size=6,
)
OBJECTS = st.one_of(
    st.sampled_from([None, 1, True, 1.0, 0, False, 0.0, -0.0, "", "1", "True"]),
    st.integers(-(2**70), 2**70),
    st.floats(),
    TEXT,
)
POOLS = {
    "f8": st.lists(st.one_of(st.sampled_from(F64_SPECIAL), st.floats()), min_size=1, max_size=8),
    "f4": st.lists(
        st.one_of(st.sampled_from(F32_SPECIAL), st.floats(width=32)), min_size=1, max_size=8
    ),
    "i8": st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8),
    "u8": st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
    "b": st.lists(st.booleans(), min_size=1, max_size=2),
    "O": st.lists(OBJECTS, min_size=1, max_size=8),
    "list": st.lists(OBJECTS, min_size=1, max_size=8),
}


def column(kind: str, pool: list, n: int, rng) -> object:
    """``n`` cells drawn from ``pool`` (so values repeat), as the column kind asks.

    A ``coded:<kind>`` column is ``(labels, codes)``: up to 8 labels of that
    kind and ``n`` codes that repeat, are not monotone and reach across
    block boundaries.
    """
    if kind.startswith("coded:"):
        labels = column(kind[6:], pool, int(rng.integers(1, 9)), rng)
        return labels, rng.integers(0, len(labels), n)
    if kind == "noise":  # all distinct, across many decades
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    cells = [pool[i] for i in rng.integers(0, len(pool), n)]
    if kind == "list":
        return cells
    if kind == "O":
        arr = np.empty(n, dtype=object)
        arr[:] = cells
        return arr
    return np.array(cells, dtype=kind)


@st.composite
def tables(draw):
    block = draw(st.sampled_from([1, 3, BLOCK]))
    edge = [0, 1, block - 1, block, block + 1, 2 * block + 1]
    n = draw(st.one_of(st.sampled_from(edge), st.integers(0, 40)))
    plain = [*POOLS, "noise"]
    kinds = draw(st.lists(st.sampled_from(plain + [f"coded:{k}" for k in plain]), max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pools = [draw(POOLS.get(kind.removeprefix("coded:"), st.none())) for kind in kinds]
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    return block, header, [column(k, p, n, rng) for k, p in zip(kinds, pools)]


def message_like(n: int) -> tuple:
    """A message-log-like table: coded routes and payloads, a constant, signed zeros."""
    rng = np.random.default_rng(n)
    nodes = [1, "a,b", 'q"t', "ä", None, True, 1.0, 0.0, -0.0]
    route = np.arange(n) % len(nodes)
    payloads = np.append(rng.standard_normal(n // 4 + 1), [0.0, -0.0, np.nan])
    sent = (np.arange(n) // 4 + 7 * (np.arange(n) % 2)) % len(payloads)
    columns = [
        np.arange(n),
        (nodes, route),
        (payloads, sent),
        np.full(n, 50.0),
        np.array([-0.0, 0.0, np.nan, 5e-324])[np.arange(n) % 4],
        np.arange(n) % 3 == 0,
        [nodes[i % len(nodes)] for i in range(n)],
    ]
    return BLOCK, ["k", "src", "payload", "f_true_hz", "signed", "ok", "node"], columns


def expand(col) -> object:
    """A coded column ``(labels, codes)`` as the plain column ``labels[codes]``."""
    if not isinstance(col, tuple):
        return col
    labels, codes = col
    return labels[codes] if isinstance(labels, np.ndarray) else [labels[c] for c in codes]


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    @example(table=message_like(BLOCK + 1))
    def test_random_tables(self, tmp_path_factory, table):
        block, header, columns = table
        d = tmp_path_factory.mktemp("csv")
        write_csv(d / "ref.csv", header, [expand(col) for col in columns])
        with mock.patch.object(gridfreq.cli, "_CSV_BLOCK_ROWS", block):
            _write_csv(d / "new.csv", header, columns)
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()

    def test_one_blank_cell_per_row_is_quoted(self, tmp_path):
        _write_csv(tmp_path / "one.csv", ["x"], [[None, "", "a", 1.5]])
        assert (tmp_path / "one.csv").read_bytes() == b'x\r\n""\r\n""\r\na\r\n1.5\r\n'


    def test_each_label_of_a_coded_column_is_formatted_once_per_file(self, tmp_path):
        texts = collections.Counter()

        class Label:
            def __init__(self, text):
                self.text = text

            def __str__(self):
                texts[self.text] += 1
                return self.text

        labels = [Label(t) for t in ("a", "b,c", "d", "e")]
        codes = np.array([2, 1, 2, 1, 1, 2, 2])
        with mock.patch.object(gridfreq.cli, "_CSV_BLOCK_ROWS", 3):
            _write_csv(tmp_path / "c.csv", ["x", "k"], [(labels, codes), np.arange(7)])
        assert texts == {"a": 1, "b,c": 1, "d": 1, "e": 1}  # once, whatever blocks reach it
        assert (tmp_path / "c.csv").read_bytes() == (
            b'x,k\r\nd,0\r\n"b,c",1\r\nd,2\r\n"b,c",3\r\n"b,c",4\r\nd,5\r\nd,6\r\n'
        )


class TestUnequalColumns:
    def test_a_short_column_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="column 'f_hat_hz' has 2 rows, 'k' has 3"):
            _write_csv(path, ["k", "f_hat_hz", "flags"], [[0, 1, 2], np.zeros(2), [0, 0, 0]])
        assert not path.exists()

    def test_header_and_columns_must_agree(self, tmp_path):
        with pytest.raises(ValueError, match="2 header names for 3 columns"):
            _write_csv(tmp_path / "t.csv", ["a", "b"], [[1], [2], [3]])


def test_text_is_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "ids.csv"
    assert str(path).isascii()
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    src = str(Path(gridfreq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys; from gridfreq.cli import _write_csv; "
    code += "_write_csv(sys.argv[1], ['n'], [['\\xe4']])"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert path.read_bytes() == b"n\r\n\xc3\xa4\r\n"


CONVENTIONAL = """
name: csv_bytes
estimator: distributed-acekf
diffusion: conventional
snr_db: 30
duration_s: 0.3
topology:
  nodes: ["a,b", n2, n3]
  edges: [["a,b", n2], [n2, n3]]
messages_csv: true
mse:
  window_s: [0.1, 0.3]
  theory: true
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.3, freq_hz: 50.0}
"""


def test_run_writes_the_reference_bytes(tmp_path, monkeypatch):
    real, kept = gridfreq.cli._tables, []

    def keep(*args):
        kept.extend(real(*args))
        return kept

    monkeypatch.setattr(gridfreq.cli, "_tables", keep)
    files = run_plan(build_plan(yaml.safe_load(CONVENTIONAL)), tmp_path / "out")
    messages = next(cols for name, _, cols in kept if name == "messages.csv")
    assert len(messages[0]) > BLOCK
    assert all(isinstance(col, tuple) for col in messages[1:4])
    assert all(col.dtype == float for col in messages[4:])
    assert sorted(f.name for f in files) == sorted([t[0] for t in kept] + ["manifest.json"])
    for name, header, columns in kept:
        write_csv(tmp_path / "ref.csv", header, [expand(col) for col in columns])
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref.csv").read_bytes(), name


@pytest.mark.parametrize("node_1_hz", [50.0, 50.5], ids=["one_truth", "two_truths"])
def test_each_truth_series_is_formatted_once(tmp_path, monkeypatch, node_1_hz):
    # the bundled mixed config gives node 1 a scenario of its own, but every node reads
    # 50 Hz throughout, so all its tables share one truth column; at 50.5 Hz node 1's
    # trace and Monte-Carlo tables share a column of their own
    real, kept = gridfreq.cli._tables, []

    def keep(plan, run, nodes):
        kept.append(run)
        kept.extend(real(plan, run, nodes))
        return kept[1:]

    monkeypatch.setattr(gridfreq.cli, "_tables", keep)
    cfg, _ = load_config("experiment4_network7_mixed")
    cfg["node_scenarios"][1]["segments"][0]["freq_hz"] = node_1_hz
    run_plan(build_plan(cfg), tmp_path / "out", n_seeds=3)
    run, *tables = kept
    truth = {name: cols[header.index("f_true_hz")] for name, header, cols in tables
             if "f_true_hz" in header}
    assert len(truth) == 14
    for j, n in enumerate(run.node_ids):
        text = truth[f"node_{n}_trace.csv"]
        assert truth[f"mc_node_{n}.csv"] is text
        assert text.tolist() == ["%.15g" % f for f in run.f_true_hz[j].tolist()]
        if np.array_equal(run.f_true_hz[j], run.f_true_hz[0]):
            assert text is truth["node_1_trace.csv"]
        else:
            assert not np.array_equal(text, truth["node_1_trace.csv"])
    assert len({id(col) for col in truth.values()}) == (1 if node_1_hz == 50.0 else 2)


BRIDGE = """
name: bridge_messages
estimator: dfe
snr_db: 30
duration_s: 0.3
topology:
  nodes: ["a,b", 'q"t', "ä"]
  edges: [["a,b", 'q"t'], ['q"t', "ä"]]
bridges: ['q"t']
messages_csv: true
scenario:
  segments:
    - {start_s: 0.0, end_s: 0.3, freq_hz: 50.0}
"""


@pytest.mark.parametrize(
    "text, phases",
    [(BRIDGE, {"to_bridge", "from_bridge"}), (CONVENTIONAL, {"to_neighbor"})],
    ids=["bridge", "conventional"],
)
def test_messages_csv_is_the_message_log(tmp_path, monkeypatch, text, phases):
    real, runs = gridfreq.cli._tables, []

    def keep(plan, run, nodes):
        runs.append(run)
        return real(plan, run, nodes)

    monkeypatch.setattr(gridfreq.cli, "_tables", keep)
    run_plan(build_plan(yaml.safe_load(text)), tmp_path / "out")
    routes, payloads = runs[0].message_log()
    # a row per (tick, route, entry), each payload as its %.15g text reads back
    expected = [
        [str(k + 1), phase, src, dst, float("%.15g" % v.real), float("%.15g" % v.imag)]
        for k in range(len(payloads)) for phase, src, dst, row in routes
        for v in payloads[k, row].tolist()
    ]
    with open(tmp_path / "out" / "messages.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["k", "phase", "src", "dst", "payload_re", "payload_im"]
    assert len(expected) > BLOCK and {r[1] for r in expected} == phases
    assert [[*r[:4], float(r[4]), float(r[5])] for r in rows] == expected
