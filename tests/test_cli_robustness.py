"""Bad input through the CLI, in a child process under a 1 GiB address cap.

Whatever the group spec or `table:` document, a run must end with an exit
code in {0, 1, 2, 3}, at most one line on stderr and no traceback: never a
crash, and never an attempt to allocate a table it cannot hold.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pargroupoid

pytest.importorskip("resource")  # the child caps its address space

SRC = Path(pargroupoid.__file__).resolve().parents[1]

_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from pargroupoid.cli import run
sys.exit(run(sys.argv[1:]))
"""


def _run_capped(argv):
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED, *argv], stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return done.returncode, done.stdout, done.stderr


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err, err
    assert err.count("\n") <= 1, err


@pytest.mark.parametrize("spec", ["cyclic:" + "9" * 5000, "cyclic:50000"],
                         ids=["5000-digits", "order-50000"])
def test_oversized_group_spec_exits_3_with_one_line(spec):
    # these exited 1: int() refuses 5,000 digits, and a 50000 x 50000
    # table runs out of memory under the cap
    code, out, err = _run_capped(["decompose", "--group", spec])
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cap on built Cayley tables" in err


def _document_argv(command, path):
    return (["decompose", f"--group=table:{path}"] if command == "table"
            else ["action-check", "--file", str(path)])


@pytest.mark.parametrize("payload", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
                                     b"[" + b"1" * 5000 + b"]"],
                         ids=["not-utf8", "too-deep", "too-many-digits"])
@pytest.mark.parametrize("command", ["table", "action-check"])
def test_unreadable_json_documents_exit_3(tmp_path, payload, command):
    # an integer past the interpreter's 4,300-digit conversion limit exited 4
    path = tmp_path / "doc.json"
    path.write_bytes(payload)
    code, out, err = _run_capped(_document_argv(command, path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["dev-zero", "fifo"])
@pytest.mark.parametrize("command", ["table", "action-check"])
def test_files_that_are_not_regular_are_refused_unread(tmp_path, kind, command):
    # /dev/zero was read until the cap ran out (exit 4, MemoryError), and a
    # FIFO with no writer blocked the reader for good
    if kind == "fifo":
        path = tmp_path / "doc.fifo"
        os.mkfifo(path)
    else:
        path = Path("/dev/zero")
        if not path.exists():
            pytest.skip("no /dev/zero")
    code, out, err = _run_capped(_document_argv(command, path))
    assert (code, out, err) == (3, "", f"error: {path} is not a regular file\n")


def test_huge_ground_set_is_never_built(tmp_path):
    # verify_partial_action built frozenset(range(X)); at X = 10^12 that
    # exited 4 with MemoryError under the cap
    path = tmp_path / "action.json"
    path.write_text('{"group":"cyclic:1","X":1000000000000,'
                    '"domains":{"0":[]},"maps":{"0":[]}}')
    code, out, err = _run_capped(["action-check", "--file", str(path)])
    assert (code, err) == (1, "first failure: identity_domain: (0,)\n")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["identity_domain"] == {
        "name": "identity_domain", "passed": False, "witness": "(0,)"}


@pytest.mark.parametrize("command", ["verify", "decompose", "gamma", "action-check"])
def test_an_empty_group_spec_exits_2(command):
    # action-check read an empty --group as absent and checked the
    # document's own group instead
    argv = [command, "--group", ""]
    if command == "action-check":
        argv += ["--file", str(Path(__file__).parent / "golden" / "action_doc_cyclic3.json")]
    code, out, err = _run_capped(argv)
    assert (code, out) == (2, "")
    assert err == ("error: bad group spec ''; expected cyclic:n, klein4, sym:n, "
                   "dihedral:n, or table:<path>\n")


_DECOMPOSING = "decomposing walks all subsets of the group; order "
_BUILDING = "building the groupoid walks all subsets of the group; order "


@pytest.mark.parametrize("argv, env, line", [
    (["decompose", "--group", "cyclic:40", "--bound", "40"], {},
     _DECOMPOSING + "40 exceeds the hard ceiling 24 on any bound"),
    # the bound is set by --bound alone; the variable is not read
    (["decompose", "--group", "cyclic:40"], {"PARGROUPOID_BOUND": "40"},
     _DECOMPOSING + "40 exceeds the bound 16"),
    (["gamma", "--group", "cyclic:30", "--bound", "30"], {},
     _BUILDING + "30 exceeds the hard ceiling 24 on any bound"),
    (["verify", "--group", "cyclic:30", "--bound", "30", "--suite", "assoc"], {},
     _BUILDING + "30 exceeds the hard ceiling 24 on any bound"),
    (["decompose", "--group", "cyclic:17"], {}, _DECOMPOSING + "17 exceeds the bound 16"),
    (["verify", "--group", "cyclic:17", "--suite", "structure"], {},
     _DECOMPOSING + "17 exceeds the bound 16"),
    (["verify", "--group", "cyclic:17", "--suite", "tensor"], {},
     _DECOMPOSING + "17 exceeds the bound 16"),
    (["verify", "--group", "cyclic:17"], {}, _BUILDING + "17 exceeds the bound 16"),
    (["decompose", "--group", "cyclic:25", "--bound", "30"], {},
     _DECOMPOSING + "25 exceeds the hard ceiling 24 on any bound"),
], ids=["decompose-flag", "decompose-env", "gamma", "verify-assoc",
        "decompose-17", "verify-structure-17", "verify-tensor-17",
        "verify-17", "decompose-25"])
def test_bounds_past_the_ceiling_exit_3_with_one_line(argv, env, line, monkeypatch):
    # the rows with a bound past the ceiling exited 4 with MemoryError under
    # the cap, decompose at once and the other two after about 20 s; every
    # refusal names the subset walk that a check runs before the subgroup
    # lattice
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = _run_capped(argv)
    _assert_clean_exit(code, err)
    assert (code, out, err) == (3, "", f"error: {line}\n")


def test_decompose_with_a_scalar_exits_2_before_the_bound():
    # decompose reads no scalar, so the flag is a usage error whatever the
    # order; the component check over scalars is `verify --suite structure`
    code, out, err = _run_capped(["decompose", "--group", "cyclic:17", "--scalar", "qnn"])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.endswith("error: unrecognized arguments: --scalar qnn\n")


_digits = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 10**9).map(str),
    st.integers(0, 3).map(lambda zeros: "0" * zeros + "7"),
    st.integers(4000, 6000).map(lambda k: "1" * k),
)
_spec_strings = st.one_of(
    st.builds("{}:{}".format,
              st.sampled_from(["cyclic", "dihedral", "sym", "klein4", "table", ""]),
              _digits),
    st.sampled_from(["klein4", "table:", "table:.", "cyclic:-3", "sym:"]),
    # no NUL or lone surrogate: neither can be passed in argv
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=40),
)

_SUBPROCESS_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@_SUBPROCESS_SETTINGS
@given(_spec_strings)
def test_fuzzed_group_specs_exit_cleanly(spec):
    # `--group=` keeps a spec that starts with "-" from reading as an option
    code, _, err = _run_capped(["decompose", f"--group={spec}"])
    _assert_clean_exit(code, err)
    assert code != 1, err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**30) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=20)


@st.composite
def _table_documents(draw):
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-1, n), _json_values)
    rows = draw(st.lists(st.lists(entry, min_size=n - 1, max_size=n + 1),
                         min_size=n - 1, max_size=n + 1))
    if draw(st.booleans()):
        # a cyclic table: a group, or close to one once a row is swapped
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
        if n > 2 and draw(st.booleans()):
            rows[1], rows[2] = rows[2], rows[1]
    doc = {"order": draw(st.one_of(st.just(n), _json_values)), "table": rows}
    if draw(st.booleans()):
        doc["labels"] = draw(st.one_of(
            st.lists(st.text(max_size=3), min_size=n, max_size=n), _json_values))
    for key in draw(st.sets(st.sampled_from(["order", "table"]), max_size=1)):
        del doc[key]
    return doc


@_SUBPROCESS_SETTINGS
@given(st.one_of(_table_documents(), _json_values))
def test_fuzzed_table_documents_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run_capped(["decompose", f"--group=table:{path}"])
    _assert_clean_exit(code, err)
    # a valid table of order <= 6 decomposes; anything else is refused
    assert code in (0, 3), err
    assert (code == 0) == (out != "")


# Action documents: huge, negative, boolean and out-of-range points, maps that
# are not lists of pairs and missing keys; and restrictions of translation,
# which are partial actions (exit 0), or fail only the identity domain when X
# is huge (exit 1).
_points = st.one_of(st.integers(-2, 5), st.booleans(), st.integers(10**12, 10**30),
                    _json_values)
_sizes = st.one_of(st.integers(0, 5), st.integers(10**9, 10**30), st.integers(-5, -1),
                   st.booleans(), _json_values)


@st.composite
def _action_documents(draw):
    n = draw(st.integers(1, 3))
    group = f"cyclic:{n}"
    if draw(st.booleans()):
        # Z_n translating itself, cut down to a window W: D_g = W & (g + W),
        # with the points of W numbered 0..|W|-1 in ascending order
        window = sorted(draw(st.sets(st.integers(0, n - 1))))
        point = {x: i for i, x in enumerate(window)}
        inside = {g: [x for x in window if (x - g) % n in point] for g in range(n)}
        domains = {str(g): [point[x] for x in inside[g]] for g in range(n)}
        maps = {str(g): [[point[x], point[(x + g) % n]] for x in inside[-g % n]]
                for g in range(n)}
        size = st.one_of(st.just(len(window)), st.integers(10**9, 10**30))
        return {"group": group, "X": draw(size), "domains": domains, "maps": maps}
    domains = {str(g): draw(st.one_of(st.lists(_points, max_size=4), _json_values))
               for g in range(n)}
    maps = {str(g): draw(st.one_of(
                st.lists(st.one_of(st.lists(_points, max_size=3), _json_values),
                         max_size=4),
                _json_values))
            for g in range(n)}
    if draw(st.booleans()):
        maps.pop(str(draw(st.integers(0, n - 1))))
    doc = {"group": draw(st.one_of(st.just(group), st.sampled_from(["klein4", "cyclic:x"]),
                                   _json_values)),
           "X": draw(_sizes), "domains": domains, "maps": maps}
    for key in draw(st.sets(st.sampled_from(list(doc)), max_size=1)):
        del doc[key]
    return doc


@_SUBPROCESS_SETTINGS
@given(st.one_of(_action_documents(), _json_values))
def test_fuzzed_action_documents_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run_capped(["action-check", "--file", str(path)])
    _assert_clean_exit(code, err)
    # a report is written exactly when the document was checked
    assert (code in (0, 1)) == (out != ""), err
