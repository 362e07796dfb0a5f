"""Command-line behavior: documents, byte stability, exit codes."""

import errno
import hashlib
import io
import itertools
import json
import operator
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import pargroupoid
from groups_util import build_roster, q8_doc, respec
from pargroupoid import cli, semialgebra, semiring, structure
from pargroupoid.cli import run
from pargroupoid.group import FiniteGroup, make_group
from pargroupoid.groupoid import VerificationError
from pargroupoid.semiring import QNN

GOLDEN = Path(__file__).parent / "golden"

# sha256 of `gamma --group cyclic:16` (47,284,509 bytes of JSON)
CYCLIC16_GAMMA_SHA256 = (
    "70d8aaef1e6dafc67bee7543ca12aea1bf1c1455cff4a7db96546536a335ccbc")


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    return code, json.loads(out), err


def test_gamma_document_for_trivial_group(capsys):
    code, doc, _ = _run_json(capsys, ["gamma", "--group", "cyclic:1"])
    assert code == 0
    assert doc["order"] == 1 and doc["size"] == 1 and doc["unit_count"] == 1
    assert doc["elements"] == [{"I": [0], "g": 0, "unit": True}]


def test_gamma_counts_units(capsys):
    code, doc, _ = _run_json(capsys, ["gamma", "--group", "cyclic:3"])
    assert code == 0
    assert doc["size"] == 8
    assert doc["unit_count"] == 4
    assert sum(el["unit"] for el in doc["elements"]) == 4


# The whole-document `gamma` output the streamed one replaced, kept as the
# test-only oracle: one dict per arrow, then json.dumps or the text render.
# The arrows come from the definition, every mask containing e with every g
# whose inverse lies in it, in sorted (mask, g) order, so the oracle shares
# nothing with the row source that both Gamma and the stream read.

def _gamma_document_oracle(G: FiniteGroup) -> dict:
    n = G.order
    arrows = sorted((mask, g) for mask in range(1 << n) for g in range(n)
                    if mask & 1 and mask >> G.inverse(g) & 1)
    return {
        "group": G.name,
        "order": n,
        "labels": [G.label(i) for i in G.elements()],
        "size": len(arrows),
        "unit_count": sum(1 for _, g in arrows if g == 0),
        "elements": [{"I": [x for x in range(n) if mask >> x & 1], "g": g,
                      "unit": g == 0}
                     for mask, g in arrows],
    }


def _gamma_output_oracle(G: FiniteGroup, fmt: str) -> str:
    d = _gamma_document_oracle(G)
    if fmt == "json":
        return json.dumps(d, indent=2) + "\n"
    lines = [f"Gamma({d['group']}): {d['size']} arrows, "
             f"{d['unit_count']} units"]
    for el in d["elements"]:
        names = ",".join(d["labels"][i] for i in el["I"])
        tag = "  unit" if el["unit"] else ""
        lines.append(f"  ({{{names}}}, {d['labels'][el['g']]}){tag}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("text", "txt")])
def test_gamma_matches_golden_bytes(capsys, fmt, suffix):
    code, out, _ = _run(capsys, ["gamma", "--group", "klein4", "--format", fmt])
    assert code == 0
    assert out == (GOLDEN / f"gamma_klein4.{suffix}").read_text()


def test_gamma_order_16_bytes_are_pinned(capsys):
    code, out, _ = _run(capsys, ["gamma", "--group", "cyclic:16"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CYCLIC16_GAMMA_SHA256


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_gamma_stream_matches_document_oracle(fmt):
    for name, G in build_roster():
        streamed = "".join(cli._gamma_chunks(G, fmt))
        assert streamed == _gamma_output_oracle(G, fmt), name


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_gamma_stream_escapes_labels_like_json_dumps(tmp_path, capsys, fmt):
    # a quote, a backslash, non-ASCII and a character outside the BMP
    labels = ["e", 'a"q\\b', "\u00e9\u4e2d\U0001F600"]
    doc = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
           "labels": labels}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    spec = f"table:{path}"
    code, out, _ = _run(capsys, ["gamma", "--group", spec, "--format", fmt])
    assert code == 0
    G = FiniteGroup(doc["table"], labels, name=spec)
    assert out == _gamma_output_oracle(G, fmt)


class _HashingSink:
    """A stdout that hashes what is written to it and keeps none of it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def test_gamma_streams_without_the_groupoid_arrays(monkeypatch):
    # Gamma's masks, gs and start hold about 1.5 MB at order 16, and a
    # listing read from a built Gamma peaked at 7.9 MB traced. The stream
    # holds byte tables and one batch of about 64 KiB of chunks: about
    # 0.5 MB traced (0.31 MB when it wrote each mask's chunk on its own).
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = run(["gamma", "--group", "cyclic:16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.sha256.hexdigest() == CYCLIC16_GAMMA_SHA256
    assert peak < 1024 * 1024


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_gamma_listing_of_many_batches_matches_document_oracle(tmp_path, capsys,
                                                               fmt):
    # cyclic:12 again as a table, labelled with a quote, a backslash,
    # non-ASCII and a character outside the BMP
    labels = ["e", 'a"q\\b', "\u00e9\u4e2d\U0001F600"]
    labels += [f"x{k}" for k in range(3, 12)]
    table = [[(a + b) % 12 for b in range(12)] for a in range(12)]
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"order": 12, "table": table, "labels": labels}))
    for spec in ("cyclic:12", "dihedral:6", f"table:{path}"):
        code, out, _ = _run(capsys, ["gamma", "--group", spec, "--format", fmt])
        assert code == 0
        assert len(out) > 4 * cli._BATCH_CHARS, spec
        assert out == _gamma_output_oracle(make_group(spec), fmt), spec


class _CountingRaw(io.RawIOBase):
    """A raw stdout that counts its writes and hashes the bytes."""

    def __init__(self):
        self.writes = 0
        self.size = 0
        self.sha256 = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.writes += 1
        self.size += len(data)
        self.sha256.update(data)
        return len(data)


@pytest.mark.parametrize("argv, digest", [
    (["gamma", "--group", "cyclic:16"], CYCLIC16_GAMMA_SHA256),
    (["decompose", "--group", "klein4"], hashlib.sha256(
        (GOLDEN / "decompose_klein4.json").read_bytes()).hexdigest()),
], ids=["gamma", "decompose"])
def test_unbuffered_stdout_gets_one_write_per_batch(monkeypatch, argv, digest):
    # the stdout that PYTHONUNBUFFERED=1 gives: each text write is one raw write
    raw = _CountingRaw()
    monkeypatch.setattr(sys, "stdout",
                        io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    assert run(argv) == 0
    assert raw.sha256.hexdigest() == digest
    if argv[0] == "gamma":
        assert raw.writes <= -(-raw.size // 65536) + 1
    else:
        assert raw.writes == 1


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["gamma", "--group", "cyclic:12"],
                                  ["verify", "--group", "sym:3", "--suite", "laws"]],
                         ids=["gamma", "verify"])
def test_a_closed_stdout_exits_3_with_one_line(argv, unbuffered):
    # A pipe with no reader fails every write. A buffered `verify` fits its
    # document in the buffer, so only the flush inside `run` can fail; the
    # interpreter's own flush at exit then goes to os.devnull.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(pargroupoid.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "pargroupoid.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        3, f"error: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}\n")


def test_gamma_writes_nothing_before_failing(capsys):
    code, out, err = _run(capsys, ["gamma", "--group", "cyclic:17"])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_structure_suite_enumerates_once(monkeypatch, capsys):
    calls = {"enumerate": 0, "census": 0}
    enumerate_ = structure.multiplicity_enumeration
    census = structure.stabilizer_census

    def counting_enumerate(*args, **kwargs):
        calls["enumerate"] += 1
        return enumerate_(*args, **kwargs)

    def counting_census(*args, **kwargs):
        calls["census"] += 1
        return census(*args, **kwargs)

    # the suite imports both from structure when it runs
    monkeypatch.setattr(structure, "multiplicity_enumeration", counting_enumerate)
    monkeypatch.setattr(structure, "stabilizer_census", counting_census)
    code, doc, _ = _run_json(capsys, ["verify", "--suite", "structure",
                                      "--group", "dihedral:4"])
    assert code == 0 and doc["passed"]
    assert calls == {"enumerate": 1, "census": 1}


def test_decompose_order_two(capsys):
    code, doc, _ = _run_json(capsys, ["decompose", "--group", "cyclic:2"])
    assert code == 0
    assert doc["gamma_size"] == 3
    assert [(b["H_order"], b["m"], b["c"]) for b in doc["blocks"]] == [
        (1, 1, 1), (2, 1, 1)]
    assert doc["audit"] == {"lhs": 3, "rhs": 3, "ok": True}
    assert all(row["equal"] for row in doc["recursion_diff"])


@pytest.mark.parametrize("spec", ["klein4", "cyclic:16", "dihedral:8"])
def test_decompose_matches_golden_bytes(capsys, spec):
    code, out, _ = _run(capsys, ["decompose", "--group", spec])
    assert code == 0
    name = spec.replace(":", "")
    assert out == (GOLDEN / f"decompose_{name}.json").read_text()


@pytest.mark.parametrize("scalar", ["qnn", "nat", "qnn-delta"])
@pytest.mark.parametrize("spec", ["klein4", "dihedral:4"])
def test_decompose_takes_no_scalar(capsys, spec, scalar):
    # the table holds no scalars; the component check over scalars runs
    # through `verify --suite structure --scalar`, its one way in
    code, out, err = _run(capsys, ["decompose", "--group", spec, "--scalar", scalar])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: --scalar {scalar}\n")


def test_decompose_text_names_isotropy_generators_by_label(tmp_path, capsys):
    # text renders each generator by its label and the trivial group by the
    # identity's label, as the block demo does; the JSON keeps indices
    doc = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
           "labels": ["1", "r", "r2"]}
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(doc))
    spec = f"table:{path}"
    code, out, _ = _run(capsys, ["decompose", "--group", spec, "--format", "text"])
    assert code == 0
    assert out.splitlines()[1:4] == ["  1 x M_1(KH), |H| = 1, H = <1>",
                                     "  1 x M_2(KH), |H| = 1, H = <1>",
                                     "  1 x M_1(KH), |H| = 3, H = <r>"]
    code, doc, _ = _run_json(capsys, ["decompose", "--group", spec])
    assert code == 0 and [b["H_gens"] for b in doc["blocks"]] == [[], [], [1]]


def test_verify_structure_matches_golden_bytes(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "structure",
                                 "--group", "dihedral:4", "--seed", "5"])
    assert code == 0
    assert out == (GOLDEN / "verify_structure_dihedral4.json").read_text()


@pytest.mark.parametrize("scalar", ["qnn", "nat", "qnn-delta"])
@pytest.mark.parametrize("spec", ["dihedral:4", "klein4"])
def test_verify_extension_matches_golden_bytes(capsys, spec, scalar):
    # klein4 also extends the regular representation (order <= 4)
    code, out, _ = _run(capsys, ["verify", "--suite", "extension",
                                 "--group", spec, "--scalar", scalar])
    assert code == 0
    name = spec.replace(":", "")
    assert out == (GOLDEN / f"verify_extension_{name}_{scalar}.json").read_text()


# qnn-delta runs the ring of differences end to end: the tensor suite's
# per-term matrix products, the nested qnn-delta-delta ring of the delta
# suite, the extension's pull-backs and the laws
@pytest.mark.parametrize("spec, scalar", [
    pytest.param("sym:3", "qnn", id="sym:3"),
    pytest.param("dihedral:4", "qnn", id="dihedral:4"),
    pytest.param("sym:3", "qnn-delta", id="sym:3-qnn-delta"),
    pytest.param("sym:3", "nat", id="sym:3-nat"),
])
def test_verify_all_matches_golden_bytes(capsys, spec, scalar):
    code, out, err = _run(capsys, ["verify", "--suite", "all",
                                   "--group", spec, "--scalar", scalar])
    assert code == 0 and err == ""
    name = spec.replace(":", "")
    assert out == (GOLDEN / f"verify_all_{name}_{scalar}.json").read_text()


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = _run(capsys, ["verify", "--group", "cyclic:2", "--suite", "laws"])
    _, second, _ = _run(capsys, ["verify", "--group", "cyclic:2", "--suite", "laws"])
    assert first == second


def test_suite_runs_same_alone_or_in_all(capsys):
    code, alone, _ = _run_json(capsys, ["verify", "--group", "cyclic:2",
                                        "--suite", "delta"])
    assert code == 0
    code, full, _ = _run_json(capsys, ["verify", "--group", "cyclic:2"])
    assert code == 0
    by_name = {s["name"]: s for s in full["suites"]}
    assert by_name["delta"] == alone["suites"][0]
    assert [s["name"] for s in full["suites"]] == [
        "laws", "assoc", "partialrep", "extension", "tensor", "delta",
        "structure"]


def test_delta_witness_is_the_first_failing_sample(monkeypatch, capsys):
    real = semialgebra.delta_extension
    calls = itertools.count()

    def failing(x):
        # five calls per sample (x, y, the pair, x * y, x + y); the image of
        # x * y is replaced in samples 0 and 3
        n = next(calls)
        return object() if n in (0 * 5 + 3, 3 * 5 + 3) else real(x)

    # the suite imports delta_extension from semialgebra when it runs
    monkeypatch.setattr(semialgebra, "delta_extension", failing)
    code, doc, _ = _run_json(capsys, ["verify", "--group", "cyclic:2",
                                      "--suite", "delta"])
    assert code == 1 and not doc["passed"]
    by_name = {c["name"]: c for c in doc["suites"][0]["checks"]}
    assert by_name["delta_multiplicative"]["witness"] == "0"
    assert not by_name["delta_multiplicative"]["passed"]
    for name in ("delta_round_trip", "delta_pair_round_trip", "delta_additive"):
        assert by_name[name]["passed"] and "witness" not in by_name[name]


def test_verify_partialrep_suite(capsys):
    code, doc, _ = _run_json(capsys, ["verify", "--group", "cyclic:3",
                                      "--suite", "partialrep"])
    assert code == 0 and doc["passed"]
    names = [c["name"] for c in doc["suites"][0]["checks"]]
    assert names == ["unit", "right_relation", "left_relation", "sandwich",
                     "span_generation"]


def test_verify_respects_scalar_and_seed(capsys):
    code, doc, _ = _run_json(capsys, ["verify", "--group", "cyclic:2",
                                      "--suite", "laws", "--scalar", "nat",
                                      "--seed", "7"])
    assert code == 0
    assert doc["scalar"] == "nat" and doc["seed"] == 7
    by_name = {c["name"]: c for c in doc["suites"][0]["checks"]}
    assert by_name["semifield"]["note"].startswith("not claimed")


def test_text_renderings(capsys):
    code, out, _ = _run(capsys, ["decompose", "--group", "cyclic:2",
                                 "--format", "text"])
    assert code == 0
    assert "KGamma(cyclic:2): 3 basis arrows" in out
    assert "audit: 3 = 3 ok" in out

    code, out, _ = _run(capsys, ["verify", "--group", "cyclic:2",
                                 "--suite", "assoc", "--format", "text"])
    assert code == 0
    assert out.rstrip().endswith("result: PASS")

    code, out, _ = _run(capsys, ["gamma", "--group", "cyclic:2",
                                 "--format", "text"])
    assert code == 0 and "3 arrows" in out


def test_group_from_table_file(tmp_path, capsys):
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(q8_doc()))
    code, doc, _ = _run_json(capsys, ["decompose", "--group", f"table:{path}"])
    assert code == 0
    assert doc["gamma_size"] == 576 and doc["audit"]["ok"]


# ---------------------------------------------------------------------------
# Exit codes.

def test_usage_errors_exit_2(capsys):
    assert _run(capsys, ["decompose"])[0] == 2            # missing --group
    assert _run(capsys, ["no-such-command"])[0] == 2
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["--help"])[0] == 0
    # each command takes only the flags it reads: --seed only verify, and
    # --bound every command but action-check
    for argv in (["gamma", "--group", "cyclic:2", "--seed", "3"],
                 ["decompose", "--group", "klein4", "--seed", "3"],
                 ["action-check", "--file", "doc.json", "--seed", "3"],
                 ["action-check", "--file", "doc.json", "--bound", "3"]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err


def test_bad_group_spec_exits_2(capsys):
    code, _, err = _run(capsys, ["gamma", "--group", "nonsense"])
    assert code == 2 and "error:" in err


def test_bad_table_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    doc = q8_doc()
    doc["table"][3] = doc["table"][3][:-1]
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["gamma", "--group", f"table:{path}"])
    assert code == 3 and "row 3" in err

    path.write_text("{not json")
    assert _run(capsys, ["gamma", "--group", f"table:{path}"])[0] == 3

    missing = tmp_path / "absent.json"
    assert _run(capsys, ["action-check", "--file", str(missing)])[0] == 3


@pytest.mark.parametrize("doc", [
    {"order": 2, "table": [[False, 1], [1, 0]]},
    {"order": 2, "table": [[0, 1], [1, 0]], "labels": ["e", "e"]},
    {"order": 2, "table": [[0, 1], [1, 0]], "labels": "ea"},
    # entries past 64 bits are still just out of range
    {"order": 2, "table": [[0, 10**30], [1, 0]]},
    {"order": 2, "table": [[0, -10**30], [1, 0]]},
])
def test_malformed_table_exits_3_with_one_line(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["gamma", "--group", f"table:{path}"])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _raise_bare_assertion(*args, **kwargs):
    raise AssertionError("kernel bug\nsecond line")


@pytest.mark.parametrize("argv, kernel", [
    (["verify", "--group", "cyclic:3", "--suite", "assoc"],
     (pargroupoid.semialgebra.GammaAlgebra, "convolve")),
    # the structure suite turns a VerificationError into a failed check,
    # but must let any other error through
    (["verify", "--group", "klein4", "--suite", "structure"],
     (structure, "_verify_block_type")),
    (["verify", "--group", "klein4", "--suite", "structure"],
     (structure, "_verify_normal_form")),
])
def test_internal_error_exits_4_not_as_a_counterexample(capsys, monkeypatch,
                                                        argv, kernel):
    monkeypatch.setattr(*kernel, _raise_bare_assertion)
    code, _, err = _run(capsys, argv)
    assert code == 4
    assert err == "internal error: AssertionError: kernel bug second line\n"


def test_memory_error_while_reporting_still_exits_4(capfd, monkeypatch):
    # under an address cap the handler's own print can run out of memory;
    # the line then goes to fd 2 as bytes made at import, and the exit code
    # stays 4 rather than escaping as 1, the counterexample code
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "decompose", exhausted)
    monkeypatch.setattr(sys.stderr, "write", exhausted)
    code = run(["decompose", "--group", "cyclic:3"])
    monkeypatch.undo()
    assert code == 4
    assert capfd.readouterr().err == "internal error: MemoryError: \n"


def test_verification_error_exits_1(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise VerificationError("matrix images fail multiplicativity")

    monkeypatch.setattr(structure, "_verify_block_type", refuse)
    code, doc, err = _run_json(capsys, ["verify", "--group", "klein4",
                                        "--suite", "structure"])
    assert code == 1 and not doc["passed"]
    check = doc["suites"][0]["checks"][0]
    assert check["name"] == "component_isomorphisms" and not check["passed"]
    assert err.startswith("first failure: component_isomorphisms")
    # a VerificationError no suite catches ends the command with exit 1
    monkeypatch.setattr(structure, "unit_components", refuse)
    code, out, err = _run(capsys, ["decompose", "--group", "cyclic:3"])
    assert (code, out, err) == (1, "", "verification failure: matrix images fail "
                                       "multiplicativity\n")


# Imports pargroupoid.cli, runs argv (if any) with stdout discarded, and
# prints the exit code and the sorted pargroupoid, numpy, array, dataclasses,
# inspect, fractions, decimal and numbers modules loaded.
_MODULES_PROBE = """
import contextlib, io, json, sys
import pargroupoid.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = pargroupoid.cli.run(sys.argv[1:])
print(json.dumps([code, sorted(
    m for m in sys.modules if m.split(".")[0] in (
        "pargroupoid", "numpy", "array", "dataclasses", "inspect",
        "fractions", "decimal", "numbers"))]))
"""


def _loaded_modules(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and modules loaded by a fresh interpreter running argv."""
    src = Path(pargroupoid.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    return code, modules


def test_importing_the_cli_does_not_load_numpy():
    assert "numpy" not in _loaded_modules([])[1]


# Every command loads the package, cli, group and groupoid; the rest are the
# layers it runs. Without a bytecode cache each loaded module is compiled on
# every start, so a module loaded here and not needed is start-up time lost.
# A command that builds a Gamma also loads `array`, a shared library that
# `gamma` and a plain `decompose` must not map. No command loads
# `dataclasses`, which brings `inspect`, `ast`, `dis` and `tokenize` with it:
# records are NamedTuples and the other classes plain ones. Only the scalars
# (`semiring`) load `fractions`, and with it `decimal` and `numbers`: the
# block table of `decompose` is exact in ints.
_BASE_MODULES = ("cli", "group", "groupoid")
_FRACTION_MODULES = ("decimal", "fractions", "numbers")


@pytest.mark.parametrize("argv, extra, builds_gamma", [
    ([], (), False),
    (["gamma", "--group", "klein4"], (), False),
    (["decompose", "--group", "klein4"], ("structure",), False),
    (["verify", "--group", "klein4", "--suite", "structure"],
     ("semialgebra", "semiring", "structure"), True),
    (["verify", "--group", "klein4", "--suite", "delta"],
     ("semialgebra", "semiring"), True),
    (["verify", "--group", "cyclic:2", "--suite", "all"],
     ("partial_rep", "semialgebra", "semiring", "structure"), True),
    (["action-check", "--file", "{action}"],
     ("partial_rep", "semialgebra", "semiring"), False),
], ids=["import", "gamma", "decompose", "verify-structure", "verify-delta",
        "verify-all", "action-check"])
def test_each_command_loads_only_its_modules(tmp_path, argv, extra, builds_gamma):
    action = tmp_path / "action.json"
    action.write_text(json.dumps({
        "group": "cyclic:2", "X": 2, "domains": {"0": [0, 1], "1": [0, 1]},
        "maps": {"0": [[0, 0], [1, 1]], "1": [[0, 1], [1, 0]]}}))
    argv = [arg.replace("{action}", str(action)) for arg in argv]
    code, modules = _loaded_modules(argv)
    assert code == 0
    fractions = list(_FRACTION_MODULES) * ("semiring" in extra)
    assert modules == sorted(["pargroupoid"] + ["array"] * builds_gamma + fractions + [
        f"pargroupoid.{name}" for name in _BASE_MODULES + extra])


# Runs argv with stdout to /dev/null and prints its exit code and ru_maxrss.
# A child's ru_maxrss starts at its parent's resident set, so the job is
# started from this small interpreter rather than from the test process.
_PEAK_PROBE = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("argv", [
    ["gamma", "--group", "cyclic:16"],
    ["verify", "--group", "cyclic:16", "--suite", "delta"],
], ids=["gamma", "verify-delta"])
def test_order_16_peak_memory(argv):
    # Gamma keeps no object per arrow and the algebras keep no index dict;
    # with them these jobs peaked at about 50 and 70 MB.
    src = Path(pargroupoid.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, sys.executable, "-m", "pargroupoid.cli",
         *argv], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    code, maxrss = map(int, done.stdout.split())
    assert code == 0, done.stderr
    peak_mb = maxrss * (1 if sys.platform == "darwin" else 1024) / 2**20
    assert peak_mb < 40


def test_order_bound_env_and_flag(monkeypatch, capsys):
    # the bound is set by --bound alone; PARGROUPOID_BOUND, which once set
    # it too, is not read
    assert _run(capsys, ["gamma", "--group", "cyclic:5", "--bound", "4"])[0] == 3
    assert _run(capsys, ["gamma", "--group", "cyclic:5", "--bound", "6"])[0] == 0
    plain = _run(capsys, ["gamma", "--group", "cyclic:5"])
    refused = _run(capsys, ["decompose", "--group", "cyclic:40"])
    assert plain[0] == 0
    assert refused == (3, "", "error: decomposing walks all subsets of the group; "
                              "order 40 exceeds the bound 16\n")
    for value in ("4", "40", "many"):
        monkeypatch.setenv("PARGROUPOID_BOUND", value)
        assert _run(capsys, ["gamma", "--group", "cyclic:5"]) == plain
        assert _run(capsys, ["decompose", "--group", "cyclic:40"]) == refused
        code, out, _ = _run(capsys, ["decompose", "--group", "klein4", "--scalar", "qnn"])
        assert (code, out) == (2, "")


def test_action_check_pass_and_fail(tmp_path, capsys):
    good = {
        "group": "cyclic:2",
        "X": 2,
        "domains": {"0": [0, 1], "1": [0, 1]},
        "maps": {"0": [[0, 0], [1, 1]], "1": [[0, 1], [1, 0]]},
    }
    path = tmp_path / "action.json"
    path.write_text(json.dumps(good))
    code, doc, _ = _run_json(capsys, ["action-check", "--file", str(path)])
    assert code == 0 and doc["passed"]

    bad = dict(good, domains={"0": [0], "1": [0]},
               maps={"0": [[0, 0]], "1": [[0, 0]]})
    path.write_text(json.dumps(bad))
    code, out, err = _run(capsys, ["action-check", "--file", str(path)])
    assert code == 1
    assert "first failure: identity_domain" in err
    assert not json.loads(out)["passed"]


# The documents and stdout bytes were made before the axiom searches became
# one generator each; stderr is the first failing check.
@pytest.mark.parametrize("name, code, err", [
    ("cyclic2", 0, ""),
    ("cyclic3", 1, "first failure: domain_compatibility: ('a', 'a')\n"),
    ("cyclic2_swap", 1, "first failure: identity_map: (0,)\n"),
])
def test_action_check_matches_golden_bytes(capsys, name, code, err):
    argv = ["action-check", "--file", str(GOLDEN / f"action_doc_{name}.json")]
    assert _run(capsys, argv) == (
        code, (GOLDEN / f"action_check_{name}.json").read_text(), err)


def test_action_check_malformed_document_exits_3(tmp_path, capsys):
    doc = {
        "group": "cyclic:2",
        "X": 2,
        "domains": {"0": [0, 1], "1": [1]},
        "maps": {"0": [[0, 0], [1, 1]], "1": [[0, 1]]},
    }
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["action-check", "--file", str(path)])
    assert code == 3 and "defined on" in err


@pytest.mark.parametrize("key", ["7", "01", "x"])
def test_action_check_refuses_a_key_that_names_no_element(tmp_path, capsys, key):
    # keys other than "0".."n-1" were ignored, and such a document exited 0
    doc = {
        "group": "cyclic:2",
        "X": 2,
        "domains": {"0": [0, 1], "1": [0, 1], key: [5]},
        "maps": {"0": [[0, 0], [1, 1]], "1": [[0, 1], [1, 0]]},
    }
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["action-check", "--file", str(path)])
    assert (code, out) == (3, "")
    assert err == (f'error: "domains" key {key!r} names no element; element keys '
                   f"run from 0 to 1\n")


def test_action_check_rejects_boolean_points(tmp_path, capsys):
    # JSON true is a Python int; it must not pass as point 1 in either slot
    for pair in ([True, 1], [1, True]):
        doc = {
            "group": "cyclic:2",
            "X": 2,
            "domains": {"0": [0, 1], "1": [0, 1]},
            "maps": {"0": [[0, 0], pair], "1": [[0, 1], [1, 0]]},
        }
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, ["action-check", "--file", str(path)])
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "non-integer pair" in err


def test_action_check_group_override(tmp_path, capsys):
    doc = {
        "X": 1,
        "domains": {"0": [0]},
        "maps": {"0": [[0, 0]]},
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, ["action-check", "--file", str(path)])[0] == 3
    code, out, _ = _run(capsys, ["action-check", "--file", str(path),
                                 "--group", "cyclic:1"])
    assert code == 0


# QNN with the Fraction constants it had before they became the ints 0 and 1,
# without dot, so that its sums of products fold term by term, and with the
# stdlib operators in place of the int-pair kernel: the test-only oracle of
# all three changes. Ints and Fractions mix exactly, compare and hash equal
# and print alike, so no output may tell the two specs apart.
QNN_FRACTIONS = respec(
    QNN, zero=Fraction(0), one=Fraction(1), dot=None,
    add=operator.add, mul=operator.mul, eq=operator.eq,
    sample=lambda rng: Fraction(rng.randrange(0, 240), rng.randrange(1, 24)))


def _fast_and_oracle(capsys, monkeypatch, argv):
    fast = _run(capsys, argv)
    with monkeypatch.context() as patch:
        patch.setattr(semiring, "QNN", QNN_FRACTIONS)
        oracle = _run(capsys, argv)
    return fast, oracle


@pytest.mark.parametrize("name", [name for name, _ in build_roster()])
def test_int_constants_match_the_fraction_spec(tmp_path, capsys, monkeypatch, name):
    # every suite but laws, which reads no group and is compared once below
    G = dict(build_roster())[name]
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"order": G.order, "table": G.cayley,
                                "labels": [G.label(x) for x in G.elements()]}))
    # the ring of differences over QNN is built from the same constants
    scalars = ("qnn", "qnn-delta") if G.order <= 4 else ("qnn",)
    for scalar in scalars:
        for suite in cli.SUITE_ORDER[1:]:
            argv = ["verify", "--group", f"table:{path}", "--suite", suite,
                    "--scalar", scalar]
            fast, oracle = _fast_and_oracle(capsys, monkeypatch, argv)
            assert fast == oracle, argv
            assert fast[0] == 0, fast[2]


@pytest.mark.parametrize("scalar", ["qnn", "qnn-delta"])
def test_int_constants_keep_the_measured_laws(capsys, monkeypatch, scalar):
    argv = ["verify", "--group", "cyclic:1", "--suite", "laws", "--scalar", scalar]
    fast, oracle = _fast_and_oracle(capsys, monkeypatch, argv)
    assert fast == oracle
    assert fast[0] == 0, fast[2]
