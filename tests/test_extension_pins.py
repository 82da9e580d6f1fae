"""Output pins for every constructor that extends a certified space.

Each case serializes what a constructor returns (labels, exact squared
distances, snapped values) and compares its sha256 with the value recorded
before the constructors were moved onto the shared extension helpers
(`extend_space`, `snap_and_certify`, `require_member`). A change to any of
these outputs must be deliberate and recorded in CHANGES.md. The float-built
cases pin one numpy build, like the stream pins in test_sampling.py.
"""

import hashlib
import json
from fractions import Fraction as F

import numpy as np
import pytest

import spherefield as sf


def _ser(x):
    if isinstance(x, sf.SpaceDistances):
        return {"labels": list(x.labels), "sq": [[str(v) for v in r] for r in x.sq_dist]}
    if isinstance(x, F):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_ser(v) for v in x]
    return x


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(_ser(obj)).encode()).hexdigest()


@pytest.fixture(scope="module")
def base():
    return sf.grow_chain(5, 10).stages[-1]


@pytest.fixture(scope="module")
def sphere(base):
    ts = sf.type_sphere(base.restrict(range(8)), base.sq_dist[8][:8])
    x = sf.realize_type(ts, [1.0, 0.0, 0.0])
    y = sf.realize_type(ts, [0.6, 0.8, 0.0])
    return ts, x, y


def _relabel(space, labels):
    return sf.SpaceDistances(labels=tuple(labels), sq_dist=space.sq_dist)


def case_chain(base, sphere):
    return base


def case_amalgamate(base, sphere):
    left, right = base.restrict(range(7)), base.restrict([7, 8, 9, 0, 1, 2, 3])
    right = _relabel(right, ["g0", "g1", "g2", "q0", "q1", "q2", "q3"])  # g0-g2 taken
    return sf.amalgamate(sf.AmalgamProblem(left, right, (0, 1, 2, 3), (3, 4, 5, 6)))


def case_copy(base, sphere):
    return [sf.near_orthogonal_copy(base, k)[:2] for k in (1, 3)]


def case_orbit(base, sphere):
    labels = ["orbit0", "orbit1"] + list(base.labels[2:])
    w = sf.no_algebraicity_witnesses(_relabel(base, labels), (0, 1, 2, 3), 5, 3)
    return [w.combined, w.sq_to_x, list(w.extensions)]


def case_one_point(base, sphere):
    c = _relabel(base.restrict(range(9)), ["w9"] + list(base.labels[1:9]))
    return sf.one_point_extension_witness(c, base.sq_dist[9][:9])


def case_random_extension(base, sphere):
    labels = [f"g{10 + i}" for i in range(10)]  # g10-g12 taken
    return sf.random_extension(_relabel(base, labels), 3, np.random.default_rng(11))


def case_pair_and_triple(base, sphere):
    ts, x, y = sphere
    pair, sq_xy = sf.realized_pair_space(ts, x, y)
    eps = sf.epsilon_threshold(ts, x, y)
    target = F(int(eps * eps / 2 * 2**32), 2**32)
    _, triple = sf.rotation_triple(ts, x, y, sq_xy, target)
    return [pair, sq_xy, triple]


def case_connect(base, sphere):
    ts, x, y = sphere
    out = []
    for b in (y, x):  # the second is the degenerate a = b witness
        w = sf.connectedness_witness(ts, x, b, 2.0, np.random.default_rng(3))
        out.append([w.space, w.sq_za, w.sq_zb, w.sq_ab])
    return out


def case_chain_links(base, sphere):
    ts, x, y = sphere
    chain = sf.connect_by_chain(ts, x, y, ts.radius_sq_exact / 16)
    return [list(chain.links), list(chain.link_sq)]


PINS = {
    case_chain: "8675e4bea429def8030a39771baed59bad7898eb3f6dc10dc6e463697e8525df",
    case_amalgamate: "55b531978b163a4c91f888c30e1cb73cbdb136207eb9a3cae25d15f8b8ea918f",
    case_copy: "c2d2a9ffe2ce0b881f5fbbdfcab8b057726e6b8790d961576812b1eeb001a06a",
    case_orbit: "80324894dd8bd276860b36125d0837bc73031ce87fdbdb49bdbb55e05b7fcc60",
    case_one_point: "45ae8b909f5075274cbb6a856bcfbe67dec0cc8332d0eafef227b526fa9f5f16",
    case_random_extension: "2d70da70a083ee46c19e65f3381c34634da75d6b8f61f431c7759c3f8041ec4c",
    case_pair_and_triple: "314932b77d096eb177bb18823233d2da72239dafdda5db9f5fd26ea768973ea8",
    case_connect: "ab3afb27bfea2755bfb5ce18afe1e23f2e67986184f412f3728392e6ce13fbbe",
    case_chain_links: "97c54a72cbdaa7f91e7f31cb3f106072fe265284054a09dabf89b1ffab76b6dd",
}


@pytest.mark.parametrize("case", list(PINS), ids=lambda c: c.__name__[5:])
def test_extension_output_pinned(case, base, sphere):
    assert _digest(case(base, sphere)) == PINS[case]
