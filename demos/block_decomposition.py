"""Block tables of groupoid semialgebras for every group of order up to 6.

Each connected component of the groupoid contributes one matrix semialgebra
M_m(KH); grouping by the conjugacy class of the isotropy group H and the
vertex count m gives the block table, and the dimension audit
sum c * m^2 * |H| = |Gamma| confirms nothing was dropped.
"""

from pargroupoid import decompose, make_group, recursion_diff


def show(spec: str) -> None:
    G = make_group(spec)
    summary = decompose(G)
    print(f"{G.name}:")
    for b in summary.blocks:
        gens = ",".join(G.label(g) for g in b.H_gens()) or G.label(0)
        print(f"  {b.c} x M_{b.m}(KH)  with H = <{gens}>, |H| = {b.H_order}")
    ok = "ok" if summary.audit_ok else "MISMATCH"
    print(f"  audit: {summary.audit_lhs} = {summary.audit_rhs}  {ok}")

    rows = recursion_diff(G, summary.multiplicities())
    bad = [r for r in rows if not r["equal"]]
    print(f"  recursion vs enumeration: {len(bad)} of {len(rows)} rows differ")
    print()


def main() -> None:
    for spec in ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "klein4",
                 "cyclic:5", "cyclic:6", "sym:3"):
        show(spec)


if __name__ == "__main__":
    main()
