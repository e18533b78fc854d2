"""References for the benchmark workloads and the checks against them.

Every expected answer is transcribed here with its source and expanded by
`expand` below.  Nothing is taken from `weylchow.series`, `weylchow.builtin`
or a stored copy of the program's output: the program's records are parsed
and compared against these numbers directly.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence


def expand(order: int, den: Sequence[int], num: Optional[Dict[int, int]] = None) -> List[int]:
    """Coefficients of num(t) / prod(1 - t^d for d in den), t^0 .. t^order."""
    coeffs = [0] * (order + 1)
    for exp, c in (num or {0: 1}).items():
        if exp <= order:
            coeffs[exp] += c
    for d in den:
        for n in range(d, order + 1):
            coeffs[n] += coeffs[n - d]
    return coeffs


# --- References -----------------------------------------------------------
#
# Degrees are topological: a generator acted on by GL_h(F_2) has degree 1,
# a generator of H^*(BT) acted on by W(F_4) has degree 2.

# Dickson (1911): F_2[x_1..x_h]^GL_h(F_2) is polynomial on classes of
# degrees 2^h - 2^i, 0 <= i < h; |GL_h(F_2)| = prod (2^h - 2^i).
GL3_ORDER = (8 - 1) * (8 - 2) * (8 - 4)  # 168


def gl3_f2(order: int) -> List[int]:
    return expand(order, (4, 6, 7))


# Chevalley: the rational invariants of W(F_4) are polynomial on classes of
# polynomial degrees 2, 6, 8, 12 (Bourbaki, Lie VI, Planche VIII);
# |W(F_4)| = 2 * 6 * 8 * 12 = 1152.
def f4_q(order: int) -> List[int]:
    return expand(order, (4, 12, 16, 24))


# Toda, "Cohomology mod 3 of the classifying space BF_4 of the exceptional
# group F_4", J. Math. Kyoto Univ. 13 (1973): the W(F_4) invariants over F_3
# have Poincare series (1 + t^20 + t^40) / ((1-t^4)(1-t^8)(1-t^36)(1-t^48)).
def f4_f3(order: int) -> List[int]:
    return expand(order, (4, 8, 36, 48), {0: 1, 20: 1, 40: 1})


# Chow ring of BSpin(7) at p = 2 (Guillot, "The Chow rings of G_2 and
# Spin(7)", J. reine angew. Math. 604 (2007)), as the source paper
# (arXiv 1605.02682) reads it off the collapse of the BP spectral sequence
# to Z_(2): a free polynomial part on classes of
# degrees 4, 8, 12 and 2-torsion t^6/((1-t^8)(1-t^12)(1-t^16))
# + t^14/((1-t^8)(1-t^12)(1-t^14)(1-t^16)).
def spin7_free(order: int) -> List[int]:
    return expand(order, (4, 8, 12))


def spin7_torsion(order: int) -> List[int]:
    return [a + b for a, b in zip(expand(order, (8, 12, 16), {6: 1}),
                                  expand(order, (8, 12, 14, 16), {14: 1}))]


# The same Chow ring restricted to the maximal torus: the image of the
# Chern-class subring has ranks 1/((1-t^4)(1-t^8)(1-t^12)), and the kernel of
# restriction is the degree-6 torsion tower t^6/((1-t^8)(1-t^12)(1-t^16)).
def spin7_image(order: int) -> List[int]:
    return expand(order, (4, 8, 12))


def spin7_kernel(order: int) -> List[int]:
    return expand(order, (8, 12, 16), {6: 1})


# Source paper, Feshbach nilpotence: c_2' = 2 w_4 and c_4' = 2 w_8 are
# nilpotent with exponent 2 in the Chow ring, the square c_4 = w_4^2 is not.
SPIN7_FESHBACH = {"c_2'": "2", "c_4'": "2", "c_4": "None"}
# The Chow-side surjectivity criterion first fails in degree 4 (w_4 is only
# hit after scaling by 2); the cohomology side is injective throughout.
SPIN7_CRITERION_FIRST_FAILURE = "4"


# Chow ring of BF_4 at p = 3 as the source paper states it, built on Toda's
# H^*(BF_4; Z/3): free part on degrees 4, 12, 16, 24 and 3-torsion
# t^26/((1-t^26)(1-t^36)(1-t^48)).
def f4_free(order: int) -> List[int]:
    return expand(order, (4, 12, 16, 24))


def f4_torsion(order: int) -> List[int]:
    return expand(order, (26, 36, 48), {26: 1})


def dickson_identities(h: int) -> Dict[str, str]:
    """Milnor's primitives on the rank-h Dickson classes, as the source paper
    states them:
    Q_{h-1} x = d_0 x for every class x, Q_{j-1} d_j = d_0 for 1 <= j < h,
    and every other Q_i of a d_j or of the top class e vanishes."""
    want = {}
    for i in range(h):
        for x in ["d_%d" % j for j in range(h)] + ["e"]:
            lhs = "Q_%d(%s)" % (i, x)
            if i == h - 1:
                want[lhs] = "d_0*%s" % x
            elif x == "d_%d" % (i + 1):
                want[lhs] = "d_0"
            else:
                want[lhs] = "0"
    return want


# --- Records --------------------------------------------------------------


class Record(NamedTuple):
    check: str
    degree: str
    verdict: str
    witness: str


def parse_records(text: str) -> List[Record]:
    """Parse `--format records` output: four tab-separated fields a line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError("record line %d has %d fields: %r" % (lineno, len(fields), line))
        out.append(Record(*fields))
    return out


def by_check(records: Sequence[Record]) -> Dict[str, List[Record]]:
    groups: Dict[str, List[Record]] = {}
    for r in records:
        groups.setdefault(r.check, []).append(r)
    return groups


def _int_series(rows: Sequence[Record], what: str, problems: List[str]) -> Dict[int, str]:
    seen: Dict[int, str] = {}
    for r in rows:
        try:
            d = int(r.degree)
        except ValueError:
            problems.append("%s: degree %r is not an integer" % (what, r.degree))
            continue
        if d in seen:
            problems.append("%s: degree %d reported twice" % (what, d))
        seen[d] = r.verdict
    return seen


def check_ranks(records: Sequence[Record], check_id: str, want: List[int],
                step: int = 1) -> List[str]:
    """One rank record under check_id per multiple of step (the generators'
    degree) up to len(want) - 1, equal to want."""
    problems: List[str] = []
    rows = by_check(records).get(check_id, [])
    got = _int_series(rows, check_id, problems)
    if sorted(got) != list(range(0, len(want), step)):
        problems.append("%s: degrees %s, want 0..%d in steps of %d"
                        % (check_id, sorted(got), len(want) - 1, step))
    for d, verdict in sorted(got.items()):
        if d < len(want) and verdict != str(want[d]):
            problems.append("%s degree %d: rank %s, want %d" % (check_id, d, verdict, want[d]))
    return problems


def ranks_of(records: Sequence[Record], check_id: str) -> Dict[int, int]:
    out = {}
    for r in by_check(records).get(check_id, []):
        if r.degree.isdigit() and r.verdict.isdigit():
            out[int(r.degree)] = int(r.verdict)
    return out


def check_rank_dominance(low: Dict[int, int], high: Dict[int, int], label: str) -> List[str]:
    """Reduction mod p of an invariant lattice is invariant, so the F_p rank
    is at least the rational rank in every degree where both were computed."""
    common = sorted(set(low) & set(high))
    if not common:
        return ["%s: no common degrees" % label]
    return ["%s degree %d: F_p rank %d below rational rank %d" % (label, d, high[d], low[d])
            for d in common if high[d] < low[d]]


def check_collapse(records: Sequence[Record], chart: str, free: List[int],
                   torsion: List[int]) -> List[str]:
    """`ahss --collapse` records: "free,torsion" per total degree."""
    check_id = "ahss.collapse.%s" % chart
    problems: List[str] = []
    got = _int_series(by_check(records).get(check_id, []), check_id, problems)
    if sorted(got) != list(range(len(free))):
        problems.append("%s: totals %s, want 0..%d" % (check_id, sorted(got), len(free) - 1))
    for n, verdict in sorted(got.items()):
        want = "%d,%d" % (free[n], torsion[n]) if n < len(free) else None
        if verdict != want:
            problems.append("%s total %d: %s, want %s" % (check_id, n, verdict, want))
    return problems


def check_dickson(records: Sequence[Record], h: int) -> List[str]:
    check_id = "dickson.h%d" % h
    want = dickson_identities(h)
    problems: List[str] = []
    got = {}
    for r in by_check(records).get(check_id, []):
        lhs, _, rhs = r.witness.partition(" == ")
        got[lhs] = rhs
        if r.verdict != "pass":
            problems.append("%s: %s is %s" % (check_id, r.witness, r.verdict))
    if got != want:
        problems.append("%s: identities %s, want %s" % (check_id, sorted(got.items()),
                                                         sorted(want.items())))
    return problems


def _single(groups: Dict[str, List[Record]], check_id: str,
            problems: List[str]) -> Optional[Record]:
    rows = groups.get(check_id, [])
    if len(rows) != 1:
        problems.append("%s: %d records, want 1" % (check_id, len(rows)))
        return None
    return rows[0]


def check_audit(records: Sequence[Record], max_degree: int) -> List[str]:
    """The Spin(7) restriction audit against the references above."""
    problems: List[str] = []
    groups = by_check(records)

    image_want = spin7_image(max_degree)
    per_degree: Dict[int, List[str]] = {}
    for r in groups.get("audit.image", []):
        per_degree.setdefault(int(r.degree), []).append(r.verdict)
        if r.verdict not in ("inside", "inside-after-scaling p^1"):
            problems.append("audit.image degree %s: %s" % (r.degree, r.verdict))
    for d in range(max_degree + 1):
        if len(per_degree.get(d, [])) != image_want[d]:
            problems.append("audit.image degree %d: %d rows, want %d"
                            % (d, len(per_degree.get(d, [])), image_want[d]))
    if per_degree.get(4) != ["inside-after-scaling p^1"]:
        problems.append("audit.image degree 4: w_4 must need scaling by 2, got %s"
                        % per_degree.get(4))
    row = _single(groups, "audit.image.rank", problems)
    if row and row.verdict != "full":
        problems.append("audit.image.rank: %s" % row.verdict)

    fesh = {r.degree: r.verdict for r in groups.get("audit.feshbach", [])}
    if fesh != SPIN7_FESHBACH:
        problems.append("audit.feshbach: %s, want %s" % (fesh, SPIN7_FESHBACH))

    row = _single(groups, "audit.criterion.h", problems)
    if row and row.verdict != "injective":
        problems.append("audit.criterion.h: %s" % row.verdict)
    row = _single(groups, "audit.criterion.ch", problems)
    if row and row.degree != SPIN7_CRITERION_FIRST_FAILURE:
        problems.append("audit.criterion.ch: first failure %s, want %s"
                        % (row.degree, SPIN7_CRITERION_FIRST_FAILURE))

    kernel_want = spin7_kernel(max_degree)
    kernel = {}
    for r in groups.get("audit.kernel", []):
        kernel[int(r.degree)] = int(r.verdict)
    for d, rank in sorted(kernel.items()):
        if rank != kernel_want[d]:
            problems.append("audit.kernel degree %d: rank %d, want %d" % (d, rank, kernel_want[d]))
    missing = [d for d in range(max_degree + 1) if kernel_want[d] and d not in kernel]
    if missing:
        problems.append("audit.kernel: no record in degrees %s" % missing)
    row = _single(groups, "audit.kernel.combined", problems)
    if row and row.verdict != "zero":
        problems.append("audit.kernel.combined: %s" % row.verdict)
    row = _single(groups, "audit.detection", problems)
    if row and row.verdict != "pass":
        problems.append("audit.detection: %s" % row.verdict)
    return problems
