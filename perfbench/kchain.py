"""The k-chain scaling family: k independent copies of corpus/chain1.opt.

Copy i has variables xi, yi and chain1's four constraints over them.  All
copies share the parameters a, b, c, d, and the objective sums c * xi.  For
k = 1 the variables keep chain1's own names x, y, so the generated problem is
chain1 itself; every copy adds three reduction steps, and one closing
redundancy sweep makes 3k + 1.
"""

KS = (1, 2, 4, 8, 16)

_CONSTRAINTS = (
    "exp({y}) <= log(a * sqrt({x}) + b)",
    "a * {x} + b * {y} = d",
    "0 <= {x}",
    "0 < a * sqrt({x}) + b",
)


def chain_text(k: int) -> str:
    """The .opt source of k copies of chain1."""
    pairs = [("x", "y")] if k == 1 else [(f"x{i}", f"y{i}") for i in range(1, k + 1)]
    constraints = [c.format(x=x, y=y) for x, y in pairs for c in _CONSTRAINTS]
    return (
        "minimization\n"
        "  !params a: nonneg, b, c, d\n"
        f"  !vars {' '.join(v for pair in pairs for v in pair)}\n"
        f"  !objective {' + '.join(f'c * {x}' for x, _ in pairs)}\n"
        "  !constraints\n    " + ",\n    ".join(constraints) + "\n"
    )


def seeded_params(rng) -> dict[str, float]:
    """Parameter values for one chain; `a` is declared nonneg."""
    return {
        "a": round(rng.uniform(0.5, 2.0), 3),
        "b": round(rng.uniform(0.5, 2.0), 3),
        "c": round(rng.uniform(0.5, 2.0), 3),
        "d": round(rng.uniform(0.5, 3.0), 3),
    }


def expected_steps(k: int) -> int:
    return 3 * k + 1
