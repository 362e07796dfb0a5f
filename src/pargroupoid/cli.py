"""Command-line front end.

Builds groups from a small spec grammar, lists groupoids, prints block
decompositions, and runs verification suites. JSON is the machine format and
is emitted with a fixed key order, two-space indent, and trailing newline, so
identical invocations are byte-identical; text output is a rendering of the
same data, and depends only on the arguments and the input files. Each suite
seeds its own generator, so a suite produces the same checks whether run
alone or as part of `all`.

Exit codes: 0 success, 1 verification failure, 2 usage or spec errors,
3 ingestion or validation errors, 4 internal error. Only a VerificationError,
raised by a mathematical check, counts as a verification failure; any other
exception is a bug in this program and ends with a one-line `internal error:`
message instead of a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .group import (
    DEFAULT_SEED,
    FiniteGroup,
    GroupOrderBoundError,
    GroupSpecError,
    GroupTableError,
    PartialActionFormatError,
    _byte_tables,
    _check_bound,
    _sums_over_masks_with_e,
    make_group,
    read_json,
    subgroup_as_group,
)
from .groupoid import Gamma, StandardGroupoid, VerificationError, arrow_rows, gamma_size

# The algebra layers (semiring, semialgebra, partial_rep) and structure are
# imported inside the commands and suites that run them: without a bytecode
# cache every module loaded is compiled again, and `gamma` needs none of them.
if TYPE_CHECKING:
    from .semiring import AxiomReport, SemiringSpec

SCALAR_CHOICES = ("qnn", "nat", "qnn-delta")
SUITE_ORDER = ("laws", "assoc", "partialrep", "extension", "tensor", "delta",
               "structure")
# The internal-error line of a bare MemoryError, made before memory can run
# out: when printing the line itself raises MemoryError, these bytes go to
# fd 2 directly, so the run still exits 4 and not as a counterexample.
_MEMORY_ERROR_LINE = b"internal error: MemoryError: \n"
# A streamed listing is written in batches of at least this many characters,
# one write each: with an unbuffered stdout every write is a system call.
_BATCH_CHARS = 1 << 16


def _scalar(name: str) -> SemiringSpec:
    from .semiring import NAT, QNN, delta_of

    if name == "qnn":
        return QNN
    if name == "nat":
        return NAT
    return delta_of(QNN)


def _emit(doc: dict | Callable[[str], Iterable[str]], args,
          render: Callable[[dict], str] | None = None) -> None:
    """Write doc as JSON, or as render(doc) for --format text.

    A listing too large to hold as one document or string is passed as a
    callable instead: called with the format, it yields the same bytes in
    chunks, which are joined and written in batches of about _BATCH_CHARS.
    """
    if callable(doc):
        chunks = doc(args.format)
    elif args.format == "json":
        chunks = (json.dumps(doc, indent=2) + "\n",)
    else:
        chunks = (render(doc),)
    write = sys.stdout.write
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= _BATCH_CHARS:
            write("".join(batch))
            batch, size = [], 0
    if batch:
        write("".join(batch))


# ---------------------------------------------------------------------------
# Verification suites. Each returns {"name", "checks"}; a check is
# {"name", "passed"} plus optional "witness"/"note" strings.

def _check(name: str, passed: bool, witness=None, note: str = "") -> dict:
    doc: dict[str, Any] = {"name": name, "passed": bool(passed)}
    if witness is not None:
        doc["witness"] = str(witness)
    if note:
        doc["note"] = note
    return doc


def _axiom_checks(report: AxiomReport) -> list[dict]:
    return [_check(c.name, c.passed, c.witness, c.note) for c in report.checks]


def _suite_laws(G: FiniteGroup, S: SemiringSpec, seed: int,
                bound: int | None) -> list[dict]:
    from .semiring import check_semiring_laws

    report = check_semiring_laws(S, seed=seed)
    claimed = {"additively_cancellative": S.claims_additively_cancellative,
               "semifield": S.claims_semifield}
    checks = []
    for c in report.checks:
        if c.name in claimed and not claimed[c.name]:
            # measured but not claimed; the witness is informational
            note = "not claimed" + ("" if c.passed else "; counterexample shown")
            checks.append(_check(c.name, True, c.witness, note))
        else:
            checks.append(_check(c.name, c.passed, c.witness))
    checks.append(_check("claims_consistent", report.claims_consistent,
                         "; ".join(report.claim_issues) or None,
                         note=f"laws measured {report.mode}"))
    return checks


def _suite_assoc(G: FiniteGroup, S: SemiringSpec, seed: int,
                 bound: int | None) -> list[dict]:
    from .semialgebra import AlgebraElement, GammaAlgebra

    alg = GammaAlgebra(Gamma(G, bound), S)
    n = alg.size

    def basis_element(i: int) -> AlgebraElement:
        return AlgebraElement(alg, {i: S.one})

    if G.order <= 4:
        basis = [basis_element(i) for i in range(n)]
        triples = ((x, y, z) for x in basis for y in basis for z in basis)
        note = f"exhaustive over {n}^3 basis triples"
    else:
        rng = random.Random(seed)
        triples = ((basis_element(rng.randrange(n)), basis_element(rng.randrange(n)),
                    basis_element(rng.randrange(n))) for _ in range(1000))
        note = "1000 seeded basis triples"
    witness = next(((repr(x), repr(y), repr(z)) for x, y, z in triples
                    if (x * y) * z != x * (y * z)), None)
    checks = [_check("associativity", witness is None, witness, note)]
    one = alg.one()
    unit_w = next((repr(x) for x in map(basis_element, range(n))
                   if one * x != x or x * one != x), None)
    checks.append(_check("two_sided_unit", unit_w is None, unit_w))
    return checks


def _suite_partialrep(G: FiniteGroup, S: SemiringSpec, seed: int,
                      bound: int | None) -> list[dict]:
    from .partial_rep import verify_kpar_relations
    from .semialgebra import GammaAlgebra

    return _axiom_checks(verify_kpar_relations(GammaAlgebra(Gamma(G, bound), S)))


def _suite_extension(G: FiniteGroup, S: SemiringSpec, seed: int,
                     bound: int | None) -> list[dict]:
    from .partial_rep import (
        ExtensionMembershipError,
        extend_to_gamma_hom,
        lambda_p,
        regular_representation,
        verify_factorization,
    )
    from .semialgebra import AlgebraElement, GammaAlgebra

    alg = GammaAlgebra(Gamma(G, bound), S)
    lam = lambda_p(alg)
    try:
        ext = extend_to_gamma_hom(lam)
    except ExtensionMembershipError as exc:
        return [_check("extension_exists", False, note=str(exc))]
    checks = [_check("extension_exists", True)]
    ident_w = next(
        (alg.describe_basis(i) for i, image in enumerate(ext.images)
         if image != AlgebraElement(alg, {i: S.one})), None)
    checks.append(_check("identity_on_basis", ident_w is None, ident_w))
    checks.extend(_axiom_checks(verify_factorization(lam, ext, seed=seed)))

    if G.order <= 4:
        reg = regular_representation(G, S)
        try:
            reg_ext = extend_to_gamma_hom(reg, alg)
        except ExtensionMembershipError as exc:
            return checks + [_check("regular_rep_extends", False, note=str(exc))]
        reg_rep = verify_factorization(reg, reg_ext, seed=seed)
        checks.append(_check("regular_rep_extends", reg_rep.passed,
                             None if reg_rep.passed else reg_rep.failures[0],
                             note="regular representation, checks aggregated"))
    return checks


def _suite_tensor(G: FiniteGroup, S: SemiringSpec, seed: int,
                  bound: int | None) -> list[dict]:
    from .semialgebra import (
        StandardAlgebra,
        matrix_algebra_for,
        standard_to_matrix,
        tensor_phi,
        tensor_varphi,
    )
    from .structure import decompose

    summary = decompose(G, bound=bound)
    rng = random.Random(seed)
    pool = S.values(12, seed)
    per_block = 25
    rt_witness = None
    phi_witness = None
    for block in summary.blocks:
        H, _ = subgroup_as_group(G, block.subgroup)
        standard = StandardAlgebra(StandardGroupoid(H, block.m), S)
        matrix = matrix_algebra_for(standard)
        for k in range(per_block):
            where = (block.H_order, block.m, k)
            X = matrix.random_element(rng)
            if standard_to_matrix(tensor_varphi(X, standard), matrix) != X:
                rt_witness = rt_witness or where
            Y = standard.random_element(rng)
            if tensor_varphi(standard_to_matrix(Y, matrix), standard) != Y:
                rt_witness = rt_witness or where

            A = [[rng.choice(pool) for _ in range(block.m)] for _ in range(block.m)]
            B = [[rng.choice(pool) for _ in range(block.m)] for _ in range(block.m)]
            w = matrix.entries.random_element(rng)
            v = matrix.entries.random_element(rng)
            cols = list(zip(*B))
            AB = [[_dot(S, row, col) for col in cols] for row in A]
            lhs = tensor_phi(A, w, matrix) * tensor_phi(B, v, matrix)
            if lhs != tensor_phi(AB, w * v, matrix):
                phi_witness = phi_witness or where
    note = f"{len(summary.blocks)} blocks, {per_block} samples each"
    return [_check("varphi_round_trip", rt_witness is None, rt_witness, note),
            _check("phi_multiplicative", phi_witness is None, phi_witness, note)]


def _dot(S: SemiringSpec, row: list, col: list):
    if S.dot is not None:
        return S.dot(zip(row, col))
    acc = S.zero
    for a, b in zip(row, col):
        acc = S.add(acc, S.mul(a, b))
    return acc


def _suite_delta(G: FiniteGroup, S: SemiringSpec, seed: int,
                 bound: int | None) -> list[dict]:
    from .semialgebra import (
        DeltaPair,
        GammaAlgebra,
        delta_extension,
        delta_extension_inverse,
    )
    from .semiring import delta_of

    base_alg = GammaAlgebra(Gamma(G, bound), S)
    dalg = base_alg.with_scalars(delta_of(S))
    rng = random.Random(seed)
    samples = 200
    rt_w = pair_w = mul_w = add_w = None
    for k in range(samples):
        x = dalg.random_element(rng, terms=4)
        y = dalg.random_element(rng, terms=4)
        fx, fy = delta_extension(x), delta_extension(y)
        if delta_extension_inverse(fx) != x and rt_w is None:
            rt_w = k
        p = DeltaPair(base_alg.random_element(rng), base_alg.random_element(rng))
        if delta_extension(delta_extension_inverse(p)) != p and pair_w is None:
            pair_w = k
        if delta_extension(x * y) != fx * fy and mul_w is None:
            mul_w = k
        if delta_extension(x + y) != fx + fy and add_w is None:
            add_w = k
    note = f"{samples} seeded samples over {dalg.scalars.name}"
    return [_check("delta_round_trip", rt_w is None, rt_w, note),
            _check("delta_pair_round_trip", pair_w is None, pair_w, note),
            _check("delta_multiplicative", mul_w is None, mul_w, note),
            _check("delta_additive", add_w is None, add_w, note)]


def _suite_structure(G: FiniteGroup, S: SemiringSpec, seed: int,
                     bound: int | None) -> list[dict]:
    from .structure import (
        coset_count_identity,
        decompose,
        recursion_diff,
        stabilizer_census,
        verify_component_isomorphisms,
        vertex_count_identity,
    )

    summary = decompose(G, bound)
    try:
        verified = verify_component_isomorphisms(Gamma(G, bound), S)
        checks = [_check("component_isomorphisms", True,
                         note=f"{verified} components verified over {S.name}")]
    except VerificationError as exc:
        checks = [_check("component_isomorphisms", False, note=str(exc))]
    checks.append(_check("dimension_audit", summary.audit_ok,
                         None if summary.audit_ok
                         else (summary.audit_lhs, summary.audit_rhs)))
    # one enumeration and one census serve every check below
    enum = summary.multiplicities()
    census = stabilizer_census(G, bound)
    checks.append(_check("vertex_count_identity", *vertex_count_identity(G, enum, census)))
    checks.append(_check("coset_count_identity", *coset_count_identity(G, census)))
    diff = recursion_diff(G, enum)
    mismatches = sum(1 for row in diff if not row["equal"])
    checks.append(_check(
        "recursion_diff_informational", True,
        note=f"{mismatches} of {len(diff)} rows differ (not asserted)"))
    return checks


_SUITES: dict[str, Callable] = {
    "laws": _suite_laws,
    "assoc": _suite_assoc,
    "partialrep": _suite_partialrep,
    "extension": _suite_extension,
    "tensor": _suite_tensor,
    "delta": _suite_delta,
    "structure": _suite_structure,
}


# ---------------------------------------------------------------------------
# Commands.

def _gamma_chunks(G: FiniteGroup, fmt: str) -> Iterator[str]:
    """The `gamma` listing, one chunk per source mask, with no Gamma built.

    The bytes are those of json.dumps(indent=2) over the document
    {group, order, labels, size, unit_count, elements: [{I, g, unit}, ...]}
    and of its text rendering; the header goes through json.dumps itself, so
    labels are escaped the same way. The counts are closed-form: 2^(n-1)
    masks contain e, one unit each, and they hold `gamma_size(n)` elements
    in all, one arrow each. Each mask's I block is read from byte tables of
    rendered elements (every I holds e, index 0, so the tables render the
    rest), its g come from `arrow_rows`, and its chunk is one str.join of
    the arrow tails (g and unit flag; the unit is g = e) after the arrow
    prefix, which leads every tail; a JSON prefix opens with the ","
    between arrows, which the first chunk drops.
    """
    n = G.order
    labels = [G.label(i) for i in G.elements()]
    size = gamma_size(n)
    unit_count = 1 << (n - 1)
    rows = arrow_rows(G)
    if fmt == "json":
        head = {"group": G.name, "order": n, "labels": labels,
                "size": size, "unit_count": unit_count}
        yield json.dumps(head, indent=2)[:-2] + ',\n  "elements": ['
        tails = [f'{g},\n      "unit": {"true" if g == 0 else "false"}\n    }}'
                 for g in range(n)]
        blocks = _sums_over_masks_with_e(
            _byte_tables([""] + [f",\n        {x}" for x in range(1, n)], ""))
        first = True
        for block, row in zip(blocks, rows):
            lead = ',\n    {\n      "I": [\n        0' + block + '\n      ],\n      "g": '
            chunk = lead.join(("", *map(tails.__getitem__, row)))
            yield chunk[1:] if first else chunk
            first = False
        yield "\n  ]\n}\n"
    else:
        yield f"Gamma({G.name}): {size} arrows, {unit_count} units\n"
        tails = [f", {labels[g]}){'  unit' if g == 0 else ''}\n" for g in range(n)]
        names = _sums_over_masks_with_e(
            _byte_tables([""] + ["," + labels[x] for x in range(1, n)], ""))
        for name, row in zip(names, rows):
            lead = "  ({" + labels[0] + name + "}"
            yield lead.join(("", *map(tails.__getitem__, row)))


def _cmd_gamma(args) -> int:
    G = make_group(args.group)
    _check_bound(G, args.bound, "building the groupoid")
    _emit(functools.partial(_gamma_chunks, G), args)
    return 0


def _cmd_decompose(args) -> int:
    from .structure import decomposition_report

    G = make_group(args.group)
    doc = decomposition_report(G, args.bound)

    def render(d: dict) -> str:
        lines = [f"KGamma({d['group']}): {d['gamma_size']} basis arrows"]
        for b in d["blocks"]:
            lines.append(f"  {b['c']} x M_{b['m']}(KH), |H| = {b['H_order']}, "
                         f"H = <{','.join(map(G.label, b['H_gens'])) or G.label(0)}>")
        audit = d["audit"]
        lines.append(f"  audit: {audit['lhs']} = {audit['rhs']} "
                     f"{'ok' if audit['ok'] else 'MISMATCH'}")
        rows = d["recursion_diff"]
        bad = sum(1 for r in rows if not r["equal"])
        lines.append(f"  recursion diff: {bad} of {len(rows)} rows differ")
        return "\n".join(lines) + "\n"

    _emit(doc, args, render)
    return 0


def _first_failure(checks: Iterable[dict]) -> int:
    """Print the first failing check document to stderr and return the exit
    code: 1 after a failure, 0 when every check passed."""
    first = next((c for c in checks if not c["passed"]), None)
    if first is None:
        return 0
    detail = first.get("witness") or first.get("note", "")
    print(f"first failure: {first['name']}: {detail}".rstrip(), file=sys.stderr)
    return 1


def _render_suites(doc: dict) -> str:
    lines = [f"verify {doc['group']} over {doc['scalar']} (seed {doc['seed']})"]
    for suite in doc["suites"]:
        lines.append(f"  {suite['name']}: {'PASS' if suite['passed'] else 'FAIL'}")
        for check in suite["checks"]:
            if not check["passed"]:
                detail = check.get("witness") or check.get("note", "")
                lines.append(f"    {check['name']}: FAIL {detail}".rstrip())
    lines.append(f"result: {'PASS' if doc['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    G = make_group(args.group)
    S = _scalar(args.scalar)
    names = SUITE_ORDER if args.suite == "all" else (args.suite,)
    suites = []
    for name in names:
        checks = _SUITES[name](G, S, args.seed, args.bound)
        suites.append({"name": name, "checks": checks,
                       "passed": all(c["passed"] for c in checks)})
    doc = {
        "group": G.name,
        "scalar": S.name,
        "seed": args.seed,
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
    _emit(doc, args, _render_suites)
    return _first_failure(c for s in suites for c in s["checks"])


def _cmd_action_check(args) -> int:
    from .partial_rep import partial_action_from_json, verify_partial_action

    doc_in = read_json(args.file, PartialActionFormatError)
    group = make_group(args.group) if args.group is not None else None
    pa = partial_action_from_json(doc_in, group=group)
    report = verify_partial_action(pa)
    doc = {
        "subject": report.subject,
        "checks": _axiom_checks(report),
        "passed": report.passed,
    }

    def render(d: dict) -> str:
        lines = [f"action-check {d['subject']}"]
        for check in d["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            extra = check.get("witness") or check.get("note", "")
            lines.append(f"  {check['name']}: {status}"
                         + (f" {extra}" if extra else ""))
        lines.append(f"result: {'PASS' if d['passed'] else 'FAIL'}")
        return "\n".join(lines) + "\n"

    _emit(doc, args, render)
    return _first_failure(doc["checks"])


_COMMANDS = {
    "gamma": _cmd_gamma,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "action-check": _cmd_action_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pargroupoid",
        description="exact groupoid semialgebra computations for finite groups")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default json)")
    # action-check walks no subsets, so it takes no bound
    bounded = argparse.ArgumentParser(add_help=False, parents=[common])
    bounded.add_argument("--bound", type=int, default=None,
                         help="group-order bound of the subset walks "
                              "(default 16, at most 24)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", parents=[bounded],
                       help="list the groupoid of a group")
    p.add_argument("--group", required=True, help="cyclic:n | klein4 | sym:n | "
                   "dihedral:n | table:<path>")

    p = sub.add_parser("decompose", parents=[bounded],
                       help="block decomposition of the groupoid semialgebra")
    p.add_argument("--group", required=True)

    p = sub.add_parser("verify", parents=[bounded],
                       help="run verification suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for sampled checks (default 0xC0FFEE)")
    p.add_argument("--group", required=True)
    p.add_argument("--suite", choices=("all",) + SUITE_ORDER, default="all")
    p.add_argument("--scalar", choices=SCALAR_CHOICES, default="qnn")

    p = sub.add_parser("action-check", parents=[common],
                       help="check the axioms of an ingested partial action")
    p.add_argument("--file", required=True, help="JSON document to check")
    p.add_argument("--group", default=None,
                   help="group spec overriding the document's own")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except GroupSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GroupTableError, GroupOrderBoundError, PartialActionFormatError,
            OSError, json.JSONDecodeError) as exc:
        if isinstance(exc, BrokenPipeError):
            # stdout still holds bytes, which the interpreter flushes at
            # exit: point fd 1 at os.devnull so that flush cannot fail too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        try:
            detail = " ".join(str(exc).split())
            print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        except MemoryError:
            os.write(2, _MEMORY_ERROR_LINE)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
