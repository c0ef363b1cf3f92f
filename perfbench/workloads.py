"""Seeded workloads for the rayclass benchmark: op lists, op execution and
the per-op correctness gate.

Three workloads, each a closed loop of one client (the next op starts when
the previous one has ended):

* ``engine``    -- q-series kernels at generic points of the upper half-plane
                   through the library (``check_surface_point``,
                   ``j_invariant``, ``eta``, ``delta``) at 256 bits.
* ``orbits``    -- ``conjugates``, ``check generation`` and ``check lemma52``
                   through ``rayclass.cli.main`` at 256 bits.
* ``classpoly`` -- ``hcp`` through ``rayclass.cli.main`` at 1536 bits.

Op lists are quasi-random in the input property that drives an op's cost
(Im tau, orbit degree, lemma52 pair count, class number): every prefix of a
list covers that property's range evenly, so a run of any length sees the
same cost mix and per-run medians stay steady across seeds.  No input repeats
within a run.  The program is always reached through module
attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction

WORKLOADS = ("engine", "orbits", "classpoly")

ENGINE_BITS, ENGINE_EPS = 256, "1e-40"
ENGINE_LEVELS = (4, 8, 12, 16)
ENGINE_IM = (0.06, 2.0)
ENGINE_OPS = 5000

ORBIT_BITS, ORBIT_EPS = 256, "1e-40"
ORBIT_D = (-200, -7)
ORBIT_LEVELS = range(3, 17)
ORBIT_MAX_DEGREE = 128
ORBIT_DESCRIPTORS = ("y4", "x", "pair")
LEMMA52_D_MAX = -39
LEMMA52_LEVELS = range(8, 13)

HCP_BITS, HCP_EPS = 1536, "1e-400"
HCP_D = (-2000, -7)
RECOG_TOL = Decimal("1e-10")

# Inputs in the ranges above on which the program reports a failure itself.
# They are left out of the op lists, so that no op of a run fails; the
# selftest checks that each still fails, so a fix shows there and the input
# can go back into its workload.
# `check generation --descriptor y4` reports pass=false: the distinctness
# threshold 1000 * eps * max|value| grows with the largest orbit value.
Y4_GENERATION_FAILS = frozenset({(-163, 11), (-163, 13), (-163, 15),
                                 (-187, 9), (-187, 11), (-195, 9)})
# `hcp` at HCP_BITS leaves coefficients unrecognized (h = 52, 50, 48, 56).
HCP_FAILS = frozenset({-1679, -1799, -1895, -1991})


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    kind is 'surface' (engine) or a CLI command ('conjugates', 'generation',
    'lemma52', 'hcp'); d and n are the discriminant and level (d is None for
    engine ops); tau is the engine point as decimal strings; descriptor is
    the orbit descriptor or None.
    """

    kind: str
    d: int | None = None
    n: int | None = None
    tau: tuple[str, str] | None = None
    descriptor: str | None = None

    def argv(self) -> list[str]:
        if self.kind == "hcp":
            return ["hcp", "--dk", str(self.d), "--bits", str(HCP_BITS),
                    "--eps", HCP_EPS]
        head = ["conjugates"] if self.kind == "conjugates" else ["check", self.kind]
        argv = head + ["--dk", str(self.d), "--level", str(self.n),
                       "--bits", str(ORBIT_BITS), "--eps", ORBIT_EPS]
        if self.descriptor:
            argv += ["--descriptor", self.descriptor]
        return argv


@dataclass
class Outcome:
    """Gate verdict for one op.

    ok: the op delivered a result and every check on it held.
    wrong: the op delivered a result that a check found false (a failure
    that also makes the run incorrect, as opposed to an error the program
    reported itself).  values: certified values the op produced.
    """

    ok: bool
    wrong: bool = False
    values: int = 0
    reason: str = ""


def fail(reason: str, wrong: bool = False) -> Outcome:
    return Outcome(False, wrong, 0, reason)


# ----------------------------------------------------------- generators ---

def _radical_inverse(i: int) -> float:
    """Base-2 van der Corput value of i: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    x, f = 0.0, 0.5
    while i:
        if i & 1:
            x += f
        i >>= 1
        f /= 2
    return x


def _quantiles(rng: random.Random):
    """Endless quasi-random quantiles in [0, 1): every prefix covers [0, 1)
    evenly; the seed sets a random rotation."""
    u = rng.random()
    i = 0
    while True:
        yield (_radical_inverse(i) + u) % 1.0
        i += 1


def _spread(rng: random.Random, pools: list, key) -> list:
    """Draw from the pools round-robin, in a seeded pool order, until one
    runs out; return (pool index, item) pairs.  Draw j takes the first free
    item at or after quantile j of its pool sorted by key (ties in random
    order), so each pool's draws, and the draws of all pools together,
    cover the key's range evenly in every prefix."""
    pools = [sorted(rng.sample(pool, len(pool)), key=key) for pool in pools]
    free = [[True] * len(pool) for pool in pools]
    order = rng.sample(range(len(pools)), len(pools))
    taken = [0] * len(pools)
    out = []
    for j, q in enumerate(_quantiles(rng)):
        s = order[j % len(pools)]
        if taken[s] == len(pools[s]):
            return out
        k = int(q * len(pools[s]))
        while not free[s][k]:
            k = (k + 1) % len(pools[s])
        free[s][k] = False
        taken[s] += 1
        out.append((s, pools[s][k]))


def fundamental_discriminants(lo: int, hi: int) -> list[int]:
    from rayclass.classfield import is_fundamental
    return [d for d in range(hi, lo - 1, -1) if is_fundamental(d)]


def engine_ops(seed: int) -> list[Op]:
    """Points with Re uniform in [-1/2, 1/2], Im log-uniform in [0.06, 2]
    (quasi-random, so every prefix has the same Im profile) and N uniform in
    ENGINE_LEVELS."""
    rng = random.Random(f"engine:{seed}")
    lo, hi = (math.log(x) for x in ENGINE_IM)
    ops = []
    for q in _quantiles(rng):
        if len(ops) == ENGINE_OPS:
            return ops
        tau = (f"{rng.uniform(-0.5, 0.5):.15f}", f"{math.exp(lo + q * (hi - lo)):.15f}")
        ops.append(Op("surface", n=rng.choice(ENGINE_LEVELS), tau=tau))


def lemma52_pairs(h_big: int, n: int) -> int:
    """Pairs the lemma52 sweep checks: forms with a >= 2 times the (s, t) in
    [0, N)^2 with (2s, 2t) outside N*Z^2."""
    zero = 2 if n % 2 == 0 else 1  # s with 2s = 0 mod N
    return h_big * (n * n - zero * zero)


def lemma52_keys(field, n: int) -> tuple[int, int]:
    """(Siegel calls, distinct (reduced index, form) keys) of one lemma52
    sweep, counted from the sweep's definition: two calls per pair plus two
    at the principal form."""
    calls, keys = 2, {(0, Fraction(2, n) % 1, 0), (0, Fraction(1, n), 0)}
    for k, q in enumerate(field.forms):
        if q.a < 2:
            continue
        for s in range(n):
            for t in range(n):
                if (2 * s) % n == 0 and (2 * t) % n == 0:
                    continue
                calls += 2
                keys.add((Fraction(2 * s, n) % 1, Fraction(2 * t, n) % 1, k))
                keys.add((Fraction(s, n), Fraction(t, n), k))
    return calls, len(keys)


def point_terms(field, eps: str, forms=None) -> float:
    """Estimated q-series terms over the CM points of `forms` (default: all
    reduced forms): the truncation index is about log(2^16/eps) / (2 pi Im),
    and Im(theta_Q) = sqrt(|d|) / (2a)."""
    per_a = (math.log(2 ** 16) - float(Decimal(eps).ln())) / math.pi / math.sqrt(-field.d)
    return sum(1 + per_a * q.a for q in (field.forms if forms is None else forms))


def orbit_ops(seed: int, fields: dict) -> list[Op]:
    """Seven interleaved streams: the six (command, descriptor) slots of
    conjugates and generation, each drawing (d, N) pairs, and lemma52.  The
    draws are spread over each op's estimated q-series terms (labels or
    pairs times terms per point)."""
    from rayclass import classfield
    rng = random.Random(f"orbits:{seed}")
    orbit_pairs, sweep_pairs = [], []
    for d, field in fields.items():
        terms = point_terms(field, ORBIT_EPS) / field.h
        for n in ORBIT_LEVELS:
            if classfield.check_hypothesis(field, n).ok:
                deg = classfield.ray_class_degree(field, n)
                if deg <= ORBIT_MAX_DEGREE:
                    orbit_pairs.append((deg * terms, d, n))
        if d <= LEMMA52_D_MAX:
            swept = [q for q in field.forms if q.a >= 2]
            terms = point_terms(field, ORBIT_EPS, swept)
            sweep_pairs.extend((lemma52_pairs(1, n) * terms, d, n) for n in LEMMA52_LEVELS)
    slots = [(kind, des) for kind in ("conjugates", "generation")
             for des in ORBIT_DESCRIPTORS] + [("lemma52", None)]
    pools = [[p for p in orbit_pairs
              if (kind, des) != ("generation", "y4") or p[1:] not in Y4_GENERATION_FAILS]
             for kind, des in slots[:-1]] + [sweep_pairs]
    drawn = _spread(rng, pools, lambda p: p[0])
    return [Op(slots[s][0], d, n, descriptor=slots[s][1]) for s, (_, d, n) in drawn]


def classpoly_ops(seed: int, fields: dict) -> list[Op]:
    """Every fundamental d in HCP_D but HCP_FAILS once, spread over the
    estimated q-series terms of its h CM points at HCP_EPS."""
    rng = random.Random(f"classpoly:{seed}")
    pool = [d for d in fields if d not in HCP_FAILS]
    drawn = _spread(rng, [pool], lambda d: point_terms(fields[d], HCP_EPS))
    return [Op("hcp", d) for _, d in drawn]


@dataclass
class Workload:
    """A built workload: its op list, the fields its gate needs and, for
    engine, the precision context."""

    name: str
    ops: list
    fields: dict
    ctx: object = None


def build(name: str, seed: int) -> Workload:
    """Import the program, build the workload's fields and its op list."""
    import rayclass.cli  # noqa: F401  (part of set-up: the CLI import)
    from rayclass import PrecisionContext, classfield

    if name == "engine":
        return Workload(name, engine_ops(seed), {},
                        PrecisionContext(ENGINE_BITS, ENGINE_EPS))
    if name == "orbits":
        fields = {d: classfield.make_field(d) for d in fundamental_discriminants(*ORBIT_D)}
        return Workload(name, orbit_ops(seed, fields), fields)
    if name == "classpoly":
        fields = {d: classfield.make_field(d) for d in fundamental_discriminants(*HCP_D)}
        return Workload(name, classpoly_ops(seed, fields), fields)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ execution ---

def execute(wl: Workload, op: Op):
    """Run one op and return its raw result; exceptions propagate."""
    import rayclass
    if op.kind == "surface":
        ctx = wl.ctx
        rep = rayclass.verify.check_surface_point(op.tau, op.n, ctx)
        pt = rayclass.qseries.ModularPoint.from_complex(op.tau, ctx)
        with ctx.work():
            return (rep, rayclass.qseries.j_invariant(pt),
                    rayclass.qseries.eta(pt), rayclass.qseries.delta(pt))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rayclass.cli.main(op.argv())
    return code, out.getvalue(), err.getvalue()


def _finite_number(s) -> bool:
    try:
        return Decimal(s).is_finite()
    except (InvalidOperation, TypeError):
        return False


def _finite_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_finite_number(s) for s in v)


def _is_cube(m: int) -> bool:
    m = abs(m)
    if m == 0:
        return True
    x = 1 << -(-m.bit_length() // 3)  # >= the integer cube root
    while True:
        y = (2 * x + m // (x * x)) // 3
        if y >= x:
            return x ** 3 == m
        x = y


def check(wl: Workload, op: Op, result) -> Outcome:
    """Correctness gate for one op's result; output that does not have the
    documented shape is wrong."""
    try:
        return _check(wl, op, result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return fail(f"malformed output: {exc!r}", wrong=True)


def _check(wl: Workload, op: Op, result) -> Outcome:
    if op.kind == "surface":
        return _check_surface(wl, result)
    code, out, err = result
    if code != 0 and not (op.kind in ("generation", "lemma52") and code == 1):
        return fail(f"exit {code}: {err.strip()[:200]}")
    try:
        doc = json.loads(out)
    except ValueError:
        return fail("stdout is not JSON", wrong=True)
    field = wl.fields[op.d]
    if op.kind == "hcp":
        return _check_hcp(field, doc)
    from rayclass import classfield
    degree = classfield.ray_class_degree(field, op.n)
    if op.kind == "conjugates":
        items = doc.get("conjugates", [])
        if doc.get("count") != degree or len(items) != degree:
            return fail(f"count {doc.get('count')} != degree {degree}", wrong=True)
        labels = {(e["t"], e["s"], tuple(e["form"])) for e in items}
        if len(labels) != degree:
            return fail("repeated Galois label", wrong=True)
        keys = ("x", "y_pow") if op.descriptor == "pair" else ("value",)
        if not all(_finite_pair(e.get(k)) for e in items for k in keys):
            return fail("non-numeric conjugate value", wrong=True)
        return Outcome(True, values=degree)
    if doc.get("pass") is not True or code != 0:
        return fail(f"{op.kind} reports pass={doc.get('pass')}")
    details = doc.get("details", {})
    if op.kind == "generation":
        if details.get("orbit_size") != degree or details.get("degree") != degree:
            return fail(f"orbit size {details.get('orbit_size')} != {degree}", wrong=True)
        return Outcome(True, values=degree)
    h_big = sum(q.a >= 2 for q in field.forms)
    pairs = lemma52_pairs(h_big, op.n)
    if details.get("pairs_checked") != pairs:
        return fail(f"pairs_checked {details.get('pairs_checked')} != {pairs}", wrong=True)
    return Outcome(True, values=pairs)


def _check_surface(wl: Workload, result) -> Outcome:
    import mpmath as mp
    rep, j, eta, delta = result
    ctx = wl.ctx
    if not rep.passed:
        return fail("surface check reports pass=False")
    with ctx.work():
        if not rep.details["surface_residual"] < ctx.eps:
            return fail("surface residual above eps", wrong=True)
        if not abs(eta ** 24 - delta) < ctx.eps * abs(delta):
            return fail("eta^24 != delta", wrong=True)
        if not mp.isfinite(j):
            return fail("j not finite", wrong=True)
    return Outcome(True, values=1)


def _check_hcp(field, doc) -> Outcome:
    """Degree h, every coefficient an integer (n = 0, den = 1) consistent with
    its printed value, monic, residual < 1e-10; for 3 not dividing d the
    constant term is a cube (it is N(gamma_2)^3)."""
    h = field.h
    coeffs, rec = doc.get("coefficients_ascending", []), doc.get("recognized", [])
    if doc.get("degree") != h or len(coeffs) != h + 1 or len(rec) != h + 1:
        return fail(f"degree {doc.get('degree')} != h {h}", wrong=True)
    if any(r is None for r in rec):
        return fail(f"{sum(r is None for r in rec)} of {h + 1} coefficients unrecognized")
    if any(r["n"] != 0 or r["den"] != 1 for r in rec):
        return fail("coefficient recognized outside Z", wrong=True)
    if rec[-1]["m"] != 1:
        return fail("not monic", wrong=True)
    for r, (re_s, im_s) in zip(rec, coeffs):
        if not (_finite_number(re_s) and _finite_number(im_s)):
            return fail("non-numeric coefficient", wrong=True)
        if abs(Decimal(re_s) - r["m"]) >= RECOG_TOL or abs(Decimal(im_s)) >= RECOG_TOL:
            return fail("recognized integer does not match its coefficient", wrong=True)
    if not Decimal(doc.get("recognition_residual", "inf")) < RECOG_TOL:
        return fail("recognition residual above 1e-10", wrong=True)
    c0 = rec[0]["m"]
    if field.d % 3 and not _is_cube(c0):
        return fail("constant term is not a cube", wrong=True)
    return Outcome(True, values=h)


# ------------------------------------------------------------ properties ---

def properties(wl: Workload, ops: list) -> dict:
    """Shares of the input properties each workload is chosen for, over the
    ops a run executed."""
    if not ops:
        return {}
    if wl.name == "engine":
        ims = [float(op.tau[1]) for op in ops]
        return {"im_below_0.3": sum(x < 0.3 for x in ims) / len(ims),
                "im_below_sqrt3/2": sum(x < math.sqrt(3) / 2 for x in ims) / len(ims)}
    if wl.name == "orbits":
        mix = {}
        for op in ops:
            key = op.kind if op.kind == "lemma52" else f"{op.kind}:{op.descriptor}"
            mix[key] = mix.get(key, 0) + 1
        calls = distinct = 0
        for op in ops:
            if op.kind == "lemma52":
                c, k = lemma52_keys(wl.fields[op.d], op.n)
                calls, distinct = calls + c, distinct + k
        return {"op_mix": {k: v / len(ops) for k, v in sorted(mix.items())},
                "lemma52_siegel_repeated_key_share":
                    1 - distinct / calls if calls else 0.0}
    hs = sorted(wl.fields[op.d].h for op in ops)
    return {"h_min": hs[0], "h_median": hs[len(hs) // 2], "h_max": hs[-1],
            "h_share_above_20": sum(h > 20 for h in hs) / len(hs)}
