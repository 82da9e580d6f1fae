"""Command-line harness for reproducible experiments.

Every run is determined by an ExperimentConfig (command, input paths,
numeric parameters, seed); identical configs on the same build produce
byte-identical output files. Outputs never contain timestamps and always
embed the config hash and seed.

Exit codes: 0 success / positive result; 2 valid negative result (the
space is not a member; uniformity of the order distribution is rejected);
1 malformed input or processing error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import builder, gaussian, orders, typegeom
from .errors import NotMemberError, SphereFieldError
from .exact import frac_to_pair, snap_sq_dist_floor
from .gaussian import CylinderEvent
from .metric import (
    GramMatrix,
    certificate_to_json,
    certify_membership,
    embed,
    empty_space,
    load_space,
    space_to_json,
)
from .sampling import random_unit_vectors

@dataclass(frozen=True)
class ExperimentConfig:
    """A run's complete recipe; the hash excludes the output directory."""

    command: str
    inputs: dict
    params: dict
    seed: int
    out: str

    def canonical(self) -> dict:
        return {
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "params": dict(sorted(self.params.items())),
            "seed": self.seed,
        }

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _stamp(cfg: ExperimentConfig, extra: dict) -> dict:
    out = {"config": cfg.canonical(), "config_hash": cfg.hash(), "seed": cfg.seed}
    out.update(extra)
    return out


def _out_path(cfg: ExperimentConfig, suffix: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, f"{cfg.command}_{cfg.hash()[:12]}{suffix}")


def _parse_fraction(text: str, flag: str) -> Fraction:
    """Exact rational from flag text; a malformed value raises ValueError naming both."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: {text.strip()!r} is not a finite rational number") from None


def _parse_int(text: str, flag: str) -> int:
    """Integer from flag text; a malformed value raises ValueError naming both."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag}: {text.strip()!r} is not an integer") from None


def _parse_list(text: str, flag: str, parse) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse(part, flag) for part in text.split(","))


def _parse_event(text: str) -> CylinderEvent:
    """Parse constraints like "0>0;1<1/2" into a cylinder event."""
    constraints = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        for op in ("<", ">"):
            if op in part:
                idx, thr = part.split(op, 1)
                idx, thr = _parse_int(idx, "--event"), _parse_fraction(thr, "--event")
                constraints.append((idx, op, thr))
                break
        else:
            raise ValueError(f"constraint {part!r} must contain < or >")
    return CylinderEvent(constraints=tuple(constraints))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_certify(cfg: ExperimentConfig) -> int:
    space = load_space(cfg.inputs["space"])
    cert = certify_membership(space)
    payload = _stamp(cfg, certificate_to_json(cert, space))
    _write_json(_out_path(cfg, ".json"), payload)
    if isinstance(cert, GramMatrix):
        print(f"member: {space.n} points, certificate written")
        return 0
    print(
        f"non-member: pivot {cert.pivot_index} gives leading minor "
        f"{cert.leading_minor}"
    )
    return 2


def cmd_embed(cfg: ExperimentConfig) -> int:
    space = load_space(cfg.inputs["space"])
    try:
        emb = embed(space, tol=cfg.params["tol"])
    except NotMemberError as exc:
        payload = _stamp(cfg, certificate_to_json(exc.rejection, space))
        _write_json(_out_path(cfg, ".json"), payload)
        print(f"non-member: {exc}")
        return 2
    payload = _stamp(cfg, {"coords": emb.coords.tolist(), "tol": emb.tol})
    _write_json(_out_path(cfg, ".json"), payload)
    print(f"embedded {emb.n} points in dimension {emb.dim}")
    return 0


def cmd_amalgamate(cfg: ExperimentConfig) -> int:
    left = load_space(cfg.inputs["left"])
    right = load_space(cfg.inputs["right"])
    problem = builder.AmalgamProblem(
        left=left,
        right=right,
        common_left=_parse_list(cfg.params["common_left"], "--common-left", _parse_int),
        common_right=_parse_list(cfg.params["common_right"], "--common-right", _parse_int),
    )
    glued = builder.amalgamate(problem)
    payload = _stamp(cfg, space_to_json(glued))
    _write_json(_out_path(cfg, ".json"), payload)
    print(f"amalgam has {glued.n} points")
    return 0


def cmd_grow(cfg: ExperimentConfig) -> int:
    start = load_space(cfg.inputs["start"]) if "start" in cfg.inputs else None
    chain = builder.grow_chain(
        seed=cfg.seed,
        n_stages=cfg.params["stages"],
        points_per_stage=cfg.params["points_per_stage"],
        denom_bits=cfg.params["denom_bits"],
        start=start,
    )
    directory = _out_path(cfg, "")
    builder.save_chain(chain, directory)
    manifest_extra = _stamp(cfg, {"directory": os.path.basename(directory)})
    _write_json(os.path.join(directory, "run.json"), manifest_extra)
    print(f"grew {len(chain.stages)} stages into {directory}")
    return 0


def _realize_two(ts, rng, min_perp: float = 0.05):
    """Two random realizations forming a non-degenerate axis pair."""
    for _ in range(256):
        dirs = random_unit_vectors(rng, 2, 3)
        x = typegeom.realize_type(ts, dirs[0])
        y = typegeom.realize_type(ts, dirs[1])
        cos = float(dirs[0] @ dirs[1])
        if abs(cos) < 1.0 - min_perp:
            return x, y
    raise SphereFieldError("could not draw a non-degenerate pair of directions")


def cmd_witness(cfg: ExperimentConfig) -> int:
    space = load_space(cfg.inputs["space"]) if "space" in cfg.inputs else empty_space()
    dists = _parse_list(cfg.params["dists"], "--dists", _parse_fraction)
    ts = typegeom.type_sphere(space, dists, tol=cfg.params["tol"])
    rng = np.random.default_rng(cfg.seed)
    kind = cfg.params["kind"]
    bits = cfg.params["denom_bits"]

    if kind == "rotation":
        x, y = _realize_two(ts, rng)
        pair, sq_xy = typegeom.realized_pair_space(ts, x, y, denom_bits=bits)
        eps = typegeom.epsilon_threshold(ts, x, y)
        if cfg.params["target_sq"]:
            target = _parse_fraction(cfg.params["target_sq"], "--target-sq")
        else:
            target = snap_sq_dist_floor(eps * eps / 2.0, bits)
        theta, triple = typegeom.rotation_triple(ts, x, y, sq_xy, target)
        _write_json(_out_path(cfg, ".json"), _stamp(cfg, space_to_json(triple)))
        _write_json(
            _out_path(cfg, "_coords.json"),
            _stamp(
                cfg,
                {
                    "coords": [x.tolist(), y.tolist(),
                               typegeom.rotate_about_axis(ts, x, y, theta).tolist()],
                    "theta": theta,
                    "epsilon": eps,
                    "target_sq": frac_to_pair(target),
                    "sq_xy": frac_to_pair(sq_xy),
                },
            ),
        )
        print(f"rotation witness: epsilon={eps:.6f}, theta={theta:.6f}")
        return 0

    if kind == "connect":
        x, y = _realize_two(ts, rng)
        phi = cfg.params["phi"]
        gap = typegeom.sphere_angle(ts, x, y)
        if gap >= phi:
            raise ValueError(f"drawn pair has angle {gap:.4f} >= phi; raise --phi or reseed")
        wit = typegeom.connectedness_witness(ts, x, y, phi, rng, denom_bits=bits)
        _write_json(_out_path(cfg, ".json"), _stamp(cfg, space_to_json(wit.space)))
        _write_json(
            _out_path(cfg, "_coords.json"),
            _stamp(
                cfg,
                {
                    "coords": [x.tolist(), y.tolist(), wit.point.tolist()],
                    "angle_a": wit.angle_a,
                    "angle_b": wit.angle_b,
                    "chord_bound": wit.chord_bound,
                },
            ),
        )
        print(
            f"connect witness: angles {wit.angle_a:.4f}, {wit.angle_b:.4f} "
            f"< phi/2 = {phi / 2:.4f}"
        )
        return 0

    if kind == "chain":
        x, y = _realize_two(ts, rng)
        step_sq = _parse_fraction(cfg.params["step_sq"], "--step-sq")
        chain = typegeom.connect_by_chain(ts, x, y, step_sq, denom_bits=bits)
        directory = _out_path(cfg, "")
        os.makedirs(directory, exist_ok=True)
        for i, link in enumerate(chain.links):
            _write_json(
                os.path.join(directory, f"link_{i:02d}.json"),
                _stamp(cfg, space_to_json(link)),
            )
        _write_json(
            os.path.join(directory, "coords.json"),
            _stamp(
                cfg,
                {
                    "coords": [p.tolist() for p in chain.points],
                    "link_sq": [frac_to_pair(s) for s in chain.link_sq],
                },
            ),
        )
        print(f"chain with {chain.jumps} certified jumps into {directory}")
        return 0

    raise ValueError(f"unknown witness kind {kind!r}")


# Rows per `%` formatting call of the CSV writer: one row template of `%r`
# fields, repeated, formats a whole block of Python floats in C, with the same
# bytes as `repr` of each value.
_CSV_BLOCK_ROWS = 4096


def cmd_sample(cfg: ExperimentConfig) -> int:
    space = load_space(cfg.inputs["space"])
    model = gaussian.build_model(space, seed=cfg.seed)
    draws = gaussian.sample(model, cfg.params["samples"])
    fmt = cfg.params["format"]
    if fmt == "npy":
        path = _out_path(cfg, ".npy")
        np.save(path, draws)
        _write_json(_out_path(cfg, ".json"), _stamp(cfg, {"shape": list(draws.shape)}))
    else:
        path = _out_path(cfg, ".csv")
        with open(path, "w") as fh:
            fh.write("# config_hash=%s seed=%d\n" % (cfg.hash(), cfg.seed))
            fh.write(",".join(space.labels) + "\n")
            template = ",".join(["%r"] * draws.shape[1]) + "\n"
            for start in range(0, draws.shape[0], _CSV_BLOCK_ROWS):
                block = draws[start:start + _CSV_BLOCK_ROWS]
                fh.write(template * block.shape[0] % tuple(block.ravel().tolist()))
    print(f"wrote {draws.shape[0]} draws of dimension {draws.shape[1]} to {path}")
    return 0


def cmd_mixing(cfg: ExperimentConfig) -> int:
    space = load_space(cfg.inputs["space"])
    event = _parse_event(cfg.params["event"])
    report = gaussian.mixing_experiment(
        space,
        event,
        k_values=_parse_list(cfg.params["k"], "--k", _parse_int),
        samples=cfg.params["samples"],
        seed=cfg.seed,
    )
    _write_json(_out_path(cfg, ".json"), _stamp(cfg, report.to_json()))
    csv_path = _out_path(cfg, ".csv")
    with open(csv_path, "w") as fh:
        fh.write("k,joint,product,kl,tv_bound\n")
        for i, k in enumerate(report.k_values):
            fh.write(
                f"{k},{report.joint[i].value!r},{report.product[i].value!r},"
                f"{report.kl_bounds[i]!r},{report.tv_bounds[i]!r}\n"
            )
    print(f"mixing report for k={list(report.k_values)} written")
    return 0


def cmd_orders(cfg: ExperimentConfig) -> int:
    space = load_space(cfg.inputs["space"])
    model = gaussian.build_model(space, seed=cfg.seed)
    indices = _parse_list(cfg.params["indices"], "--indices", _parse_int)
    dist = orders.order_distribution(model, indices, cfg.params["samples"])
    payload = dist.to_json()
    if dist.k <= 4:
        support = orders.full_support_check(dist, model=model)
        payload["exact_probs"] = support.exact_probs
        payload["all_observed"] = support.all_observed
    if dist.k == 1:
        payload["uniformity"] = {"statistic": 0.0, "p_value": 1.0}
        _write_json(_out_path(cfg, ".json"), _stamp(cfg, payload))
        print("verdict: degenerate (single point, statistic 0)")
        return 0
    stat, p = orders.uniformity_test(dist)
    payload["uniformity"] = {"statistic": stat, "p_value": p}
    reject = p < 1e-3
    payload["verdict"] = "reject-uniform" if reject else "no-evidence-against-uniform"
    _write_json(_out_path(cfg, ".json"), _stamp(cfg, payload))
    if reject:
        print(f"verdict: REJECT uniform (chi2={stat:.2f}, p={p:.3g} < 1e-3)")
        return 2
    print(f"verdict: no evidence against uniform (chi2={stat:.2f}, p={p:.3g})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and config merge
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherefield",
        description="Certified sphere spaces, their Gaussian field, and induced orders.",
    )
    parser.add_argument("--config", help="JSON file of defaults; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--denom-bits", dest="denom_bits", type=int, default=None)

    p = sub.add_parser("certify", help="exact membership certificate or rejection witness")
    p.add_argument("--space", required=True)
    common(p)

    p = sub.add_parser("embed", help="float unit-sphere coordinates of a certified space")
    p.add_argument("--space", required=True)
    common(p)

    p = sub.add_parser("amalgamate", help="free amalgam of two spaces over a common part")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--common-left", dest="common_left", default=None)
    p.add_argument("--common-right", dest="common_right", default=None)
    common(p)

    p = sub.add_parser("grow", help="generic chain of certified random extensions")
    p.add_argument("--stages", type=int, default=None)
    p.add_argument("--points-per-stage", dest="points_per_stage", type=int, default=None)
    p.add_argument("--start", default=None)
    common(p)

    p = sub.add_parser("witness", help="constructive sphere-geometry witnesses")
    p.add_argument("--space", default=None, help="base configuration C (default: empty)")
    p.add_argument("--dists", default=None, help="squared distances to C, e.g. '1,3/2'")
    p.add_argument("--kind", choices=("rotation", "connect", "chain"), default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--step-sq", dest="step_sq", default=None)
    p.add_argument("--target-sq", dest="target_sq", default=None)
    common(p)

    p = sub.add_parser("sample", help="raw Gaussian field draws")
    p.add_argument("--space", required=True)
    p.add_argument("--format", choices=("csv", "npy"), default=None)
    common(p)

    p = sub.add_parser("mixing", help="joint-vs-product estimates over copies")
    p.add_argument("--space", required=True)
    p.add_argument("--event", default=None, help="constraints like '0>0;1<1/2'")
    p.add_argument("--k", default=None)
    common(p)

    p = sub.add_parser("orders", help="sort-induced order distribution and uniformity test")
    p.add_argument("--space", required=True)
    p.add_argument("--indices", default=None)
    common(p)

    return parser


_INPUT_KEYS = {"space", "left", "right", "start"}

DEFAULTS = {
    "seed": 0,
    "samples": 1_000_000,
    "tol": 1e-9,
    "denom_bits": 32,
    "out": ".",
    "common_left": "",
    "common_right": "",
    "stages": 8,
    "points_per_stage": 1,
    "dists": "",
    "kind": "rotation",
    "phi": 1.2,
    "step_sq": "1/4",
    "target_sq": "",
    "format": "csv",
    "event": "0>0",
    "k": "2,4,8,16",
    "indices": "0,1,2",
}


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    file_defaults = {}
    if args.config:
        with open(args.config) as fh:
            file_defaults = json.load(fh)

    def pick(name):
        explicit = getattr(args, name, None)
        if explicit is not None:
            return explicit
        if name in file_defaults:
            return file_defaults[name]
        return DEFAULTS.get(name)

    inputs = {}
    params = {}
    for name in vars(args):
        if name in ("config", "command", "seed", "out"):
            continue
        value = pick(name)
        if name in _INPUT_KEYS:
            if value is not None:
                inputs[name] = value
        elif value is not None:
            params[name] = value
    return ExperimentConfig(
        command=args.command,
        inputs=inputs,
        params=params,
        seed=int(pick("seed")),
        out=str(pick("out")),
    )


_DISPATCH = {
    "certify": cmd_certify,
    "embed": cmd_embed,
    "amalgamate": cmd_amalgamate,
    "grow": cmd_grow,
    "witness": cmd_witness,
    "sample": cmd_sample,
    "mixing": cmd_mixing,
    "orders": cmd_orders,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        return _DISPATCH[args.command](cfg)
    except (
        SphereFieldError,
        OSError,
        json.JSONDecodeError,
        ValueError,
        IndexError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
