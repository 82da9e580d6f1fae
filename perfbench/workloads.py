"""The benchmark's workloads: input generation, timed tasks and correctness gates.

A workload is a fixed cycle of tasks. Each cycle draws fresh inputs from
its own seed, so no two cycles share an input object or value, and no
cache keyed on a space can carry work from one cycle into the next. A task
calls spherefield's public functions through `rec.call`, which records a
span in a traced run; it returns its outputs, and the task's gate checks
them afterwards, outside the timed interval, and takes the work counts the
per-layer metrics need.

Why each workload exists is in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import spherefield as sf
from spherefield import cli, sampling

import oracle

GRID = 1 << 32  # input squared distances are multiples of 2^-32


class GateError(Exception):
    """A task's output failed the correctness gate."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise GateError(what)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable        # (rec, inputs) -> output, timed
    check: Callable      # (inputs, output, counters) -> None, raises GateError


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # (rng, workdir) -> dict
    tasks: tuple[Task, ...]


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def random_sq(rng: np.random.Generator, n: int) -> list[list[Fraction]]:
    """Squared distances of n random unit vectors in R^{2n}, rounded to the grid."""
    v = rng.standard_normal((n, 2 * n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    d = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    sq = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sq[i][j] = sq[j][i] = Fraction(max(1, round(float(d[i, j]) * GRID)), GRID)
    return sq


def sub(sq, idx) -> list[list[Fraction]]:
    return [[sq[i][j] for j in idx] for i in idx]


def space(sq, prefix: str = "p") -> sf.SpaceDistances:
    return sf.SpaceDistances(
        labels=tuple(f"{prefix}{i}" for i in range(len(sq))),
        sq_dist=tuple(tuple(r) for r in sq),
    )


def task_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def certified(s: sf.SpaceDistances, what: str) -> None:
    require(oracle.is_member(s.sq_dist), f"{what} does not certify under the oracle")


def den_bits(s: sf.SpaceDistances) -> int:
    return max((v.denominator.bit_length() for r in s.sq_dist for v in r), default=0)


# ---------------------------------------------------------------------------
# exact-construct: large certifications with big denominators
# ---------------------------------------------------------------------------

NONMEMBER_SQ = Fraction(39, 10)


def exact_inputs(rng, workdir) -> dict:
    m48 = random_sq(rng, 48)
    far = random_sq(rng, 48)
    for row in far:
        row.append(NONMEMBER_SQ)
    far.append([NONMEMBER_SQ] * 48 + [Fraction(0)])
    inputs = {"member": space(m48), "nonmember": space(far)}
    for name, (own, common) in {"amalg16": (8, 8), "amalg24": (12, 12)}.items():
        # points [0, common) are shared, then left-only, then right-only
        u = random_sq(rng, common + 2 * own)
        shared = list(range(common))
        left_only = list(range(common, common + own))
        right_only = list(range(common + own, common + 2 * own))
        inputs[name] = (
            space(sub(u, shared + left_only), "l"),
            space(sub(u, right_only + shared), "r"),
            tuple(range(common)),
            tuple(range(own, own + common)),
        )
    inputs["copy24"] = space(random_sq(rng, 24))
    inputs["embed32"] = space(random_sq(rng, 32))
    inputs["model_seed"] = task_seed(rng)
    inputs["orbit16"] = space(random_sq(rng, 16))
    return inputs


def run_certify_member(rec, inp):
    return rec.call("metric.certify_membership", sf.certify_membership, inp["member"])


def check_certify_member(inp, cert, counters):
    require(isinstance(cert, sf.GramMatrix), "48-point member was rejected")
    require(list(cert.pd_certificate) == oracle.pivots(inp["member"].sq_dist),
            "member pivots differ from the oracle")


def run_certify_nonmember(rec, inp):
    return rec.call("metric.certify_membership", sf.certify_membership, inp["nonmember"])


def check_certify_nonmember(inp, cert, counters):
    require(isinstance(cert, sf.Rejection), "49-point non-member was accepted")
    require(cert.pivot_index == 48, f"rejected at pivot {cert.pivot_index}, not 48")
    require(cert.leading_minor == oracle.leading_minors(inp["nonmember"].sq_dist)[48],
            "rejection minor differs from the oracle")
    counters.add("metric.certify_membership.rejected")


def amalgam_task(key):
    def run(rec, inp):
        left, right, cl, cr = inp[key]
        problem = rec.call("builder.AmalgamProblem", sf.AmalgamProblem, left, right, cl, cr)
        return rec.call("builder.amalgamate", sf.amalgamate, problem)

    def check(inp, out, counters):
        left, right, cl, cr = inp[key]
        own = right.n - len(cr)
        require(out.n == left.n + own, "amalgam has the wrong size")
        require(out.restrict(range(left.n)).sq_dist == left.sq_dist,
                "amalgam does not restrict to the left input")
        # right input order: right-only points, then the common ones
        pos = list(range(left.n, left.n + own)) + list(cl)
        require(out.restrict(pos).sq_dist == right.sq_dist,
                "amalgam does not restrict to the right input")
        certified(out, "amalgam")
        counters.max("builder.amalgamate.max_den_bits", den_bits(out))

    return Task(key, run, check)


def run_copy(rec, inp):
    return rec.call("gaussian.near_orthogonal_copy", sf.near_orthogonal_copy, inp["copy24"], 4)


def check_copy(inp, out, counters):
    base = inp["copy24"].sq_dist
    copy, combined, iso = out
    n = len(base)
    require(copy.sq_dist == base, "copy is not isometric to the original")
    require(iso.codomain_indices == tuple(range(n, 2 * n)), "isometry maps the wrong points")
    for i in range(n):
        for j in range(n):
            g = 1 - base[i][j] / 2
            require(combined.sq_dist[i][j] == base[i][j]
                    and combined.sq_dist[n + i][n + j] == base[i][j],
                    "combined space changes a block")
            require(combined.sq_dist[i][n + j] == 2 - 2 * g / 4,
                    f"cross entry ({i},{j}) is not 2 - 2g/k")
    certified(combined, "near-orthogonal copy")


def run_embed_model(rec, inp):
    s = inp["embed32"]
    emb = rec.call("metric.embed", sf.embed, s)
    model = rec.call("gaussian.build_model", sf.build_model, s, inp["model_seed"])
    return emb, model


def check_embed_model(inp, out, counters):
    emb, model = out
    sq = inp["embed32"].sq_dist
    exact = np.array([[float(v) for v in r] for r in sq])
    require(emb.coords.shape == (32, 32), "embedding has the wrong shape")
    require(float(np.max(np.abs(emb.sq_distances() - exact))) <= 1e-9,
            "embedding does not round-trip the squared distances")
    gram = [[1 - v / 2 for v in r] for r in sq]
    require([list(r) for r in model.sigma] == gram, "model covariance is not the exact Gram")
    chol = model.chol
    require(float(np.max(np.abs(chol @ chol.T - np.array(gram, dtype=float)))) <= 1e-10,
            "model factor does not reproduce the covariance")


ORBIT_FIXED, ORBIT_X, ORBIT_M = tuple(range(8)), 8, 4


def run_orbit(rec, inp):
    return rec.call("builder.no_algebraicity_witnesses", sf.no_algebraicity_witnesses,
                    inp["orbit16"], ORBIT_FIXED, ORBIT_X, ORBIT_M)


def check_orbit(inp, out, counters):
    base = inp["orbit16"].sq_dist
    n = len(base)
    c = out.combined
    require(c.n == n + ORBIT_M and out.new_indices == tuple(range(n, n + ORBIT_M)),
            "witness family has the wrong size")
    require(c.restrict(range(n)).sq_dist == base, "witness family changes the space")
    require(out.sq_to_x > 0, "witnesses coincide with x")
    for t in range(n, n + ORBIT_M):
        require(all(c.sq_dist[t][f] == base[ORBIT_X][f] for f in ORBIT_FIXED),
                "a witness does not carry x's profile over the fixed set")
        require(all(c.sq_dist[t][s] == out.sq_to_x for s in out.new_indices if s != t),
                "witnesses are not pairwise at 2 rho^2")
        require(out.extensions[t - n].sq_dist == c.restrict(list(range(n)) + [t]).sq_dist,
                "an extension is not the restriction of the family")
    certified(c, "witness family")


EXACT_CONSTRUCT = Workload(
    "exact-construct",
    exact_inputs,
    (
        Task("certify_member48", run_certify_member, check_certify_member),
        Task("certify_nonmember49", run_certify_nonmember, check_certify_nonmember),
        amalgam_task("amalg16"),
        amalgam_task("amalg24"),
        Task("near_orthogonal_copy24", run_copy, check_copy),
        Task("embed_model32", run_embed_model, check_embed_model),
        Task("no_algebraicity16", run_orbit, check_orbit),
    ),
)


# ---------------------------------------------------------------------------
# sphere-witness: many small bordered certifications plus float geometry
# ---------------------------------------------------------------------------

GAP = 1.5   # angle between the two realizations x and y on the type sphere
PHI = 2.0   # connectedness witness angle, above GAP


def witness_inputs(rng, workdir) -> dict:
    cases = []
    for n in (16, 20, 24):
        full = random_sq(rng, n + 1)
        d1 = rng.standard_normal(3)
        d1 /= np.linalg.norm(d1)
        w = rng.standard_normal(3)
        w -= d1 * (w @ d1)
        w /= np.linalg.norm(w)
        cases.append({
            "C": space(sub(full, range(n))),
            "profile": tuple(full[n][:n]),
            "dx": d1,
            "dy": math.cos(GAP) * d1 + math.sin(GAP) * w,
            "rng": np.random.default_rng(task_seed(rng)),
        })
    return {"cases": cases}


def witness_task(pos: int) -> Task:
    def run(rec, inp):
        case = inp["cases"][pos]
        ts = rec.call("typegeom.type_sphere", sf.type_sphere, case["C"], case["profile"])
        x = sf.realize_type(ts, case["dx"])
        y = sf.realize_type(ts, case["dy"])
        pair, sq_xy = rec.call("typegeom.realized_pair_space", sf.realized_pair_space, ts, x, y)
        eps = sf.epsilon_threshold(ts, x, y)
        target = Fraction(math.floor(eps * eps / 2 * GRID), GRID)
        theta, triple = rec.call("typegeom.rotation_triple", sf.rotation_triple,
                                 ts, x, y, sq_xy, target)
        wit = rec.call("typegeom.connectedness_witness", sf.connectedness_witness,
                       ts, x, y, PHI, case["rng"])
        step_sq = ts.radius_sq_exact / 64
        chain = rec.call("typegeom.connect_by_chain", sf.connect_by_chain, ts, x, y, step_sq)
        return dict(ts=ts, pair=pair, sq_xy=sq_xy, target=target, theta=theta,
                    triple=triple, wit=wit, step_sq=step_sq, chain=chain)

    def check(inp, out, counters):
        case = inp["cases"][pos]
        C, profile = case["C"], case["profile"]
        n = C.n

        def carries_profile(s, new_sq, what):
            # s = C followed by len(new_sq) new points with the given mutual distances
            k = len(new_sq)
            require(s.n == n + k, f"{what} has the wrong size")
            require(s.restrict(range(n)).sq_dist == C.sq_dist, f"{what} changes C")
            for a in range(k):
                require(s.sq_dist[n + a][:n] == profile, f"{what} loses the profile")
                for b in range(k):
                    if a != b:
                        require(s.sq_dist[n + a][n + b] == new_sq[a][b],
                                f"{what} has a wrong new distance")
            certified(s, what)

        require(out["ts"].radius_sq_exact > 0, "type sphere has no radius")
        sq_xy, target = out["sq_xy"], out["target"]
        carries_profile(out["pair"], [[0, sq_xy], [sq_xy, 0]], "pair space")
        require(0 < out["theta"] < math.pi, "rotation angle outside (0, pi)")
        carries_profile(out["triple"], [[0, sq_xy, target], [sq_xy, 0, sq_xy],
                                        [target, sq_xy, 0]], "rotation triple")
        wit = out["wit"]
        require(wit.angle_a < PHI / 2 and wit.angle_b < PHI / 2, "witness angles too wide")
        carries_profile(wit.space, [[0, wit.sq_ab, wit.sq_za], [wit.sq_ab, 0, wit.sq_zb],
                                    [wit.sq_za, wit.sq_zb, 0]], "connectedness witness")
        chain = out["chain"]
        require(len(chain.links) >= 1 and len(chain.links) == len(chain.link_sq),
                "chain has no links")
        for link, sq in zip(chain.links, chain.link_sq):
            require(0 < sq <= out["step_sq"], "chain link longer than the step")
            carries_profile(link, [[0, sq], [sq, 0]], "chain link")
        counters.add("typegeom.connect_by_chain.links", len(chain.links))

    return Task(f"witness{16 + 4 * pos}", run, check)


SPHERE_WITNESS = Workload(
    "sphere-witness", witness_inputs, tuple(witness_task(p) for p in range(3))
)


# ---------------------------------------------------------------------------
# chain-grow: incremental growth from a certified start space, then save
# ---------------------------------------------------------------------------

CHAIN_START, CHAIN_STAGES, CHAINS_PER_CYCLE = 24, 8, 3


def chain_inputs(rng, workdir) -> dict:
    return {"chains": [
        {"start": space(random_sq(rng, CHAIN_START), "s"), "seed": task_seed(rng),
         "dir": os.path.join(workdir, f"chain{i}")}
        for i in range(CHAINS_PER_CYCLE)
    ]}


def chain_task(pos: int) -> Task:
    def run(rec, inp):
        job = inp["chains"][pos]
        chain = rec.call("builder.grow_chain", sf.grow_chain, job["seed"], CHAIN_STAGES,
                         start=job["start"])
        rec.call("builder.save_chain", sf.save_chain, chain, job["dir"])
        return chain

    def check(inp, chain, counters):
        job = inp["chains"][pos]
        stages = chain.stages
        require(len(stages) == CHAIN_STAGES + 1, "chain has the wrong number of stages")
        require(stages[0].sq_dist == job["start"].sq_dist, "chain does not start at the start")
        for prev, cur in zip(stages, stages[1:]):
            require(cur.n == prev.n + 1, "a stage does not add one point")
            require(cur.restrict(range(prev.n)).sq_dist == prev.sq_dist,
                    "a stage is not an extension of the previous one")
        # every stage is a principal block of the last, so one certificate covers all
        certified(stages[-1], "final chain stage")
        with open(os.path.join(job["dir"], "manifest.json")) as fh:
            require(json.load(fh)["n_stages"] == len(stages), "manifest stage count")
        with open(os.path.join(job["dir"], f"stage_{CHAIN_STAGES:03d}.json")) as fh:
            saved = json.load(fh)["sq_dist"]
        require([[Fraction(a, b) for a, b in r] for r in saved]
                == [list(r) for r in stages[-1].sq_dist],
                "saved final stage differs from the chain")
        counters.add("builder.save_chain.bytes", sum(
            e.stat().st_size for e in os.scandir(job["dir"])))
        shutil.rmtree(job["dir"])

    return Task(f"grow{pos}", run, check)


CHAIN_GROW = Workload(
    "chain-grow", chain_inputs, tuple(chain_task(p) for p in range(CHAINS_PER_CYCLE))
)

PROBE_STAGES, PROBE_SEEDS = 48, 4


def growth_probe(rng) -> list[dict]:
    """Grow PROBE_SEEDS chains from the empty space to 48 points, the size
    at which growth is known to fail, and report each outcome by seed.
    Outside the timed phase: a diagnostic, not a task."""
    out = []
    for _ in range(PROBE_SEEDS):
        seed = task_seed(rng)
        try:
            sf.grow_chain(seed, PROBE_STAGES)
            out.append({"seed": seed, "error": None})
        except sf.SphereFieldError as exc:
            out.append({"seed": seed, "error": type(exc).__name__, "message": str(exc)})
    return out


# ---------------------------------------------------------------------------
# field-stats: Monte Carlo, order statistics and export on an 8-point space
# ---------------------------------------------------------------------------

DRAWS, ORDER_DRAWS, MIX_DRAWS, CLI_ROWS = 1_000_000, 200_000, 200_000, 200_000
ORDER_KS = (3, 4, 6, 7)
MIX_KS, MIX_POINTS = (2, 4, 8, 16), 3
HALF = 4  # the 8-point space is a 4-point space and its copy at cross scale 1/3


def field_inputs(rng, workdir) -> dict:
    base = random_sq(rng, HALF)
    sq = [[Fraction(0)] * (2 * HALF) for _ in range(2 * HALF)]
    for i in range(HALF):
        for j in range(HALF):
            g = 1 - base[i][j] / 2
            sq[i][j] = sq[HALF + i][HALF + j] = base[i][j]
            sq[i][HALF + j] = sq[HALF + j][i] = 2 - 2 * g / 3
    s = space(sq)
    seed = task_seed(rng)
    path = os.path.join(workdir, f"space_{seed}.json")
    with open(path, "w") as fh:
        json.dump({"labels": list(s.labels),
                   "sq_dist": [[[v.numerator, v.denominator] for v in r] for r in sq]}, fh)
    swap = list(range(HALF, 2 * HALF)) + list(range(HALF))
    return {
        "space": s,
        "mix_space": s.restrict(range(MIX_POINTS)),
        "path": path,
        "model": sf.build_model(s, seed=seed),
        "seed": seed,
        "normal_seed": task_seed(rng),
        "indices": {k: tuple(int(i) for i in rng.permutation(2 * HALF)[:k]) for k in ORDER_KS},
        "swap": sf.PartialIsometry(tuple(range(2 * HALF)), tuple(swap)),
        "event": sf.CylinderEvent(((0, ">", Fraction(0)),)),
        "perm_rng": np.random.default_rng(task_seed(rng)),
        "workdir": workdir,
    }


def check_blocks(full, block, what):
    """Row blocks drawn at an offset equal the same rows of the one-call draw."""
    for offset in (0, 123_457, DRAWS - 1000):
        require(np.array_equal(block(offset), full[offset:offset + 1000]),
                f"{what} row_offset block at {offset} differs")


def run_sample(rec, inp):
    return rec.call("gaussian.sample", sf.sample, inp["model"], DRAWS)


def check_sample(inp, draws, counters):
    model = inp["model"]
    require(draws.shape == (DRAWS, 2 * HALF), "sample has the wrong shape")
    check_blocks(draws, lambda off: sf.sample(model, 1000, row_offset=off), "sample")
    # 1e6 draws give covariance standard errors near 1.4e-3; the field has mean
    # 0, so the second moment is the covariance, and needs no centred copy
    second = draws.T @ draws / DRAWS
    require(float(np.max(np.abs(second - model.sigma_float()))) < 0.01,
            "sample covariance is not the Gram matrix")
    counters.add("gaussian.sample.work", DRAWS)


def run_normals(rec, inp):
    return rec.call("sampling.normal_matrix", sampling.normal_matrix,
                    inp["normal_seed"], DRAWS, 2 * HALF)


def check_normals(inp, z, counters):
    require(z.shape == (DRAWS, 2 * HALF), "normal_matrix has the wrong shape")
    check_blocks(z, lambda off: sampling.normal_matrix(inp["normal_seed"], 1000, 2 * HALF,
                                                       row_offset=off), "normal_matrix")
    require(abs(float(z.mean())) < 0.005 and abs(float(z.var()) - 1) < 0.005,
            "normals are not standard")
    counters.add("sampling.normal_matrix.work", z.size)


def orders_task(k: int) -> Task:
    def run(rec, inp):
        dist = rec.call("orders.order_distribution", sf.order_distribution,
                        inp["model"], inp["indices"][k], ORDER_DRAWS)
        stat, p = rec.call("orders.uniformity_test", sf.uniformity_test, dist)
        support = None
        if k <= 4:
            support = rec.call("orders.full_support_check", sf.full_support_check,
                               dist, inp["model"])
        return dist, stat, p, support

    def check(inp, out, counters):
        dist, stat, p, support = out
        counts = dist.counts()
        require(len(counts) == math.factorial(k), "not one cell per ordering")
        require(sum(counts.values()) == ORDER_DRAWS, "order counts do not sum to the draws")
        require(dist.tie_count == 0, "ties in a continuous law")
        expected = ORDER_DRAWS / len(counts)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        require(math.isclose(stat, chi2, rel_tol=1e-9), "chi-square statistic is wrong")
        require(0.0 <= p <= 1.0, "p-value outside [0, 1]")
        if support is not None:
            require(support.all_observed and support.exact_all_positive,
                    "an ordering has no support")
            require(abs(sum(support.exact_probs.values()) - 1) < 1e-4,
                    "exact ordering probabilities do not sum to 1")
            for key, exact in support.exact_probs.items():
                se = math.sqrt(exact * (1 - exact) / ORDER_DRAWS)
                require(abs(counts[key] / ORDER_DRAWS - exact) <= 6 * se + 1e-6,
                        f"ordering {key} is off its exact probability")
        counters.add("orders.order_distribution.work", ORDER_DRAWS)

    return Task(f"orders{k}", run, check)


def run_mixing(rec, inp):
    return rec.call("gaussian.mixing_experiment", sf.mixing_experiment,
                    inp["mix_space"], inp["event"], MIX_KS, MIX_DRAWS, inp["seed"])


def check_mixing(inp, rep, counters):
    require(rep.k_values == MIX_KS and rep.n_samples == MIX_DRAWS, "mixing report shape")
    kls = rep.kl_bounds
    require(all(a >= b >= 0 for a, b in zip(kls, kls[1:])), "KL does not fall with k")
    require(all(math.isclose(tv, math.sqrt(kl / 2)) for tv, kl in zip(rep.tv_bounds, kls)),
            "TV bound is not sqrt(KL/2)")
    for est in rep.joint + rep.mu_b + rep.product:
        require(0.0 <= est.value <= 1.0, "estimate outside [0, 1]")


def run_invariance(rec, inp):
    return rec.call("gaussian.invariance_check", sf.invariance_check, inp["model"],
                    inp["swap"], 1000, 100, inp["perm_rng"])


def check_invariance(inp, rep, counters):
    require(rep.exact_sigma_invariant, "covariance is not invariant under the swap")
    require(rep.n_samples == 1000 and rep.n_permutations == 100, "invariance report shape")
    require(0.0 < rep.p_value <= 1.0, "p-value outside (0, 1]")


def cli_task(fmt: str) -> Task:
    def run(rec, inp):
        out = os.path.join(inp["workdir"], f"cli_{fmt}")
        argv = ["sample", "--space", inp["path"], "--samples", str(CLI_ROWS),
                "--format", fmt, "--seed", str(inp["seed"]), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            return rec.call(f"cli.sample_{fmt}", cli.main, argv), out

    def check(inp, out, counters):
        code, directory = out
        require(code == 0, f"cli sample --format {fmt} exited {code}")
        path = next(e.path for e in os.scandir(directory) if e.name.endswith("." + fmt))
        if fmt == "csv":
            got = np.loadtxt(path, delimiter=",", skiprows=2)
        else:
            got = np.load(path)
        require(np.array_equal(got, sf.sample(inp["model"], CLI_ROWS)),
                f"cli {fmt} output differs from sample()")
        counters.add(f"cli.sample_{fmt}.bytes", os.path.getsize(path))
        shutil.rmtree(directory)
        with contextlib.redirect_stderr(io.StringIO()):
            bad = cli.main(["sample", "--space", inp["path"] + ".missing", "--out", directory])
        require(bad == 1, f"cli sample of a missing space exited {bad}, not 1")

    return Task(f"cli_{fmt}", run, check)


FIELD_STATS = Workload(
    "field-stats",
    field_inputs,
    (
        Task("sample", run_sample, check_sample),
        Task("normal_matrix", run_normals, check_normals),
        *(orders_task(k) for k in ORDER_KS),
        Task("mixing", run_mixing, check_mixing),
        Task("invariance", run_invariance, check_invariance),
        cli_task("csv"),
        cli_task("npy"),
    ),
)

WORKLOADS = {w.name: w for w in (EXACT_CONSTRUCT, SPHERE_WITNESS, CHAIN_GROW, FIELD_STATS)}
