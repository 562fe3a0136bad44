"""Each built-in scenario family is pinned field by field, so that its
assembly path can change without changing what it builds.

For every pinned system the test fixes its name, its first 64 letters,
each of those letters' maps, its seeds, its tail (kind, unit,
diverges_below, and bound(k, s) on a grid), and its contraction
certificate.  Maps, letters and tail grids are pinned as sha256 digests of
their reprs and float.hex texts; names and certificates are pinned as
they read.  The families are pinned through the same fields of their base
and of builder(eps), plus degenerate_letters(h) and their declared
constants.
"""

import hashlib

import pytest

from gifsdim.perturb import affine_family, cf_family
from gifsdim.scenarios import (
    affine_demo,
    cf_system,
    gaussian_alphabet,
    perturbed_affine,
    perturbed_cf,
)

TAIL_KS = (0, 1, 2, 3, 5, 10, 30, 63)
TAIL_SS = (0.5, 1.0, 1.25, 1.5, 2.0, 3.0)


def _digest(items):
    text = "\n".join(items)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _hex(x):
    return float(x).hex()


def fingerprint(system):
    """The pinned fields of one system: name and certificate as they read,
    letters, maps, seeds and tail as digests."""
    letters = system.letters(64)
    vertices = system.graph.vertices.prefix(16)
    tail = system.tail
    cb = system.contraction
    return {
        "name": system.name,
        "letters": _digest(repr(e) for e in letters),
        "maps": _digest(repr(system.map_of(e)) for e in letters),
        "seeds": _digest(repr(system.seed(v)) for v in vertices),
        "tail": (tail.kind, tail.unit, tail.diverges_below,
                 _digest(_hex(tail.bound(k, s)) for k in TAIL_KS for s in TAIL_SS)),
        "contraction": (cb.depth, _hex(cb.rate), _hex(cb.effective_rate), _hex(cb.comparison)),
    }


SYSTEMS = {
    "cf-full": cf_system,
    "cf12": lambda: cf_system((1, 2)),
    "gaussian-4": lambda: cf_system(gaussian_alphabet(4)),
    **{f"perturbed-full-{eps}": (lambda eps=eps: perturbed_cf((1, 2), None, eps))
       for eps in (0.0, 2.0 ** -4, 1.0)},
    **{f"perturbed-three-{eps}": (lambda eps=eps: perturbed_cf((1, 2), (1, 2, 3), eps))
       for eps in (0.0, 2.0 ** -4, 1.0)},
    "affine-demo": affine_demo,
    **{f"perturbed-affine-{eps}": (lambda eps=eps: perturbed_affine(eps))
       for eps in (0.0, 0.1, 1.0)},
}

PINS = {
    'affine-demo': {
        "name": 'affine-demo', "letters": '91fa1ec2673722b1',
        "maps": '171f01881d7111be', "seeds": '846ac990ba733ed6',
        "tail": ('finite', 'vertex', None, '2c573fa99454cca4'),
        "contraction": (1, '0x1.999999999999ap-2', '0x1.999999999999ap-2',
                        '0x1.0000000000000p+0'),
    },
    'cf-full': {
        "name": 'cf-full', "letters": '8304af584c8d5ed9',
        "maps": '65e125926d276057', "seeds": 'c425f2c34a111e40',
        "tail": ('p-series', 'edge', 1.0, '4dcdc37979525943'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
    'cf12': {
        "name": 'cf-2', "letters": 'c4356c6b09991882',
        "maps": '37a4a11d558f04a0', "seeds": 'c425f2c34a111e40',
        "tail": ('finite', 'edge', None, '2c573fa99454cca4'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
    'gaussian-4': {
        "name": 'cf-36', "letters": 'cb4611687f2ffc62',
        "maps": '1fb457b77cacceb7', "seeds": 'c425f2c34a111e40',
        "tail": ('finite', 'edge', None, '2c573fa99454cca4'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
    'perturbed-affine-0.0': {
        "name": 'affine-demo-perturbed(eps=0)', "letters": 'e2f5602742839ce8',
        "maps": 'b578b2896510d304', "seeds": '846ac990ba733ed6',
        "tail": ('finite', 'vertex', None, '2c573fa99454cca4'),
        "contraction": (1, '0x1.999999999999ap-2', '0x1.999999999999ap-2',
                        '0x1.0000000000000p+0'),
    },
    'perturbed-affine-0.1': {
        "name": 'affine-demo-perturbed(eps=0.1)', "letters": 'e2f5602742839ce8',
        "maps": '1398b733dc32ff32', "seeds": '846ac990ba733ed6',
        "tail": ('finite', 'vertex', None, '2c573fa99454cca4'),
        "contraction": (1, '0x1.9eb851eb851ecp-2', '0x1.9eb851eb851ecp-2',
                        '0x1.0000000000000p+0'),
    },
    'perturbed-affine-1.0': {
        "name": 'affine-demo-perturbed(eps=1)', "letters": 'e2f5602742839ce8',
        "maps": '3cc22ea4013cf7ae', "seeds": '846ac990ba733ed6',
        "tail": ('finite', 'vertex', None, '2c573fa99454cca4'),
        "contraction": (1, '0x1.ccccccccccccdp-2', '0x1.ccccccccccccdp-2',
                        '0x1.0000000000000p+0'),
    },
    'perturbed-full-0.0': {
        "name": 'cf-perturbed(eps=0)', "letters": '2026a03dcbb2256e',
        "maps": 'de9cd76c83454f14', "seeds": 'c425f2c34a111e40',
        "tail": ('p-series', 'edge', 1.0, 'e712e4324c726a97'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
    'perturbed-full-0.0625': {
        "name": 'cf-perturbed(eps=0.0625)', "letters": '2026a03dcbb2256e',
        "maps": 'a7b57c83df178c62', "seeds": 'c425f2c34a111e40',
        "tail": ('p-series', 'edge', 1.0, '39ba7a22de2022e5'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
    'perturbed-full-1.0': {
        "name": 'cf-perturbed(eps=1)', "letters": '2026a03dcbb2256e',
        "maps": 'bb56a6f23ab80453', "seeds": 'c425f2c34a111e40',
        "tail": ('p-series', 'edge', 1.0, 'a0fb782562109a60'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
    'perturbed-three-0.0': {
        "name": 'cf-perturbed(eps=0)', "letters": 'd778047aeff994ab',
        "maps": '2657d9e9c1559dc8', "seeds": 'c425f2c34a111e40',
        "tail": ('finite', 'edge', None, '2c573fa99454cca4'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
    'perturbed-three-0.0625': {
        "name": 'cf-perturbed(eps=0.0625)', "letters": 'd778047aeff994ab',
        "maps": '227732d6c027fc3a', "seeds": 'c425f2c34a111e40',
        "tail": ('finite', 'edge', None, '2c573fa99454cca4'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
    'perturbed-three-1.0': {
        "name": 'cf-perturbed(eps=1)', "letters": 'd778047aeff994ab',
        "maps": 'ef9bccf68212a147', "seeds": 'c425f2c34a111e40',
        "tail": ('finite', 'edge', None, '2c573fa99454cca4'),
        "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                        '0x1.ed097b425ed0ap+0'),
    },
}


@pytest.mark.parametrize("n", range(1, 13))
def test_the_gaussian_alphabet_is_the_sorted_box(n):
    box = sorted((m * m + q * q, m, q) for m in range(1, n + 1) for q in range(-n, n + 1))
    assert gaussian_alphabet(n) == tuple(complex(m, q) for _, m, q in box)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_each_scenario_builds_what_it_pins(name):
    assert fingerprint(SYSTEMS[name]()) == PINS[name]


def family_fields(family, eps):
    return {
        "base": fingerprint(family.base),
        "builder": fingerprint(family.builder(eps)),
        "degenerate": [_digest(repr(e) for e in family.degenerate_letters(h))
                       for h in (5, 10, 20)],
        "constants": (family.epsilon0, family.summable_above, family.infinite, family.name),
    }


FAMILIES = {
    "cf-family": (cf_family, 0.5),
    "cf-family-three": (lambda: cf_family((1, 2), (1, 2, 3)), 0.25),
    "affine-family": (affine_family, 0.1),
}

FAMILY_PINS = {
    'affine-family': {
        "base": {
            "name": 'affine-demo', "letters": '91fa1ec2673722b1',
            "maps": '171f01881d7111be', "seeds": '846ac990ba733ed6',
            "tail": ('finite', 'vertex', None, '2c573fa99454cca4'),
            "contraction": (1, '0x1.999999999999ap-2', '0x1.999999999999ap-2',
                            '0x1.0000000000000p+0'),
        },
        "builder": {
            "name": 'affine-demo-perturbed(eps=0.1)', "letters": 'e2f5602742839ce8',
            "maps": '1398b733dc32ff32', "seeds": '846ac990ba733ed6',
            "tail": ('finite', 'vertex', None, '2c573fa99454cca4'),
            "contraction": (1, '0x1.9eb851eb851ecp-2', '0x1.9eb851eb851ecp-2',
                            '0x1.0000000000000p+0'),
        },
        "degenerate": ['9141880f8a0cebae', '9141880f8a0cebae', '9141880f8a0cebae'],
        "constants": (1.0, 0.0, False, 'affine-family'),
    },
    'cf-family': {
        "base": {
            "name": 'cf-2', "letters": 'c4356c6b09991882',
            "maps": '37a4a11d558f04a0', "seeds": 'c425f2c34a111e40',
            "tail": ('finite', 'edge', None, '2c573fa99454cca4'),
            "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                            '0x1.ed097b425ed0ap+0'),
        },
        "builder": {
            "name": 'cf-perturbed(eps=0.5)', "letters": '2026a03dcbb2256e',
            "maps": 'ff411096f270053e', "seeds": 'c425f2c34a111e40',
            "tail": ('p-series', 'edge', 1.0, '02ca52b70f98d3e0'),
            "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                            '0x1.ed097b425ed0ap+0'),
        },
        "degenerate": ['dd9bb5a6d769dc76', 'c8878de5d6a9fcbd', '9251bdc1e0989c17'],
        "constants": (1.0, 1.0, True, 'cf-family'),
    },
    'cf-family-three': {
        "base": {
            "name": 'cf-2', "letters": 'c4356c6b09991882',
            "maps": '37a4a11d558f04a0', "seeds": 'c425f2c34a111e40',
            "tail": ('finite', 'edge', None, '2c573fa99454cca4'),
            "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                            '0x1.ed097b425ed0ap+0'),
        },
        "builder": {
            "name": 'cf-perturbed(eps=0.25)', "letters": 'd778047aeff994ab',
            "maps": '157d25c70601e0f2', "seeds": 'c425f2c34a111e40',
            "tail": ('finite', 'edge', None, '2c573fa99454cca4'),
            "contraction": (2, '0x1.b442a6a0916b8p-1', '0x1.d89d89d89d89ep-1',
                            '0x1.ed097b425ed0ap+0'),
        },
        "degenerate": ['ffc63b2e3b7e6699', 'ffc63b2e3b7e6699', 'ffc63b2e3b7e6699'],
        "constants": (1.0, 0.0, False, 'cf-family(2+1)'),
    },
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_each_family_builds_what_it_pins(name):
    make, eps = FAMILIES[name]
    assert family_fields(make(), eps) == FAMILY_PINS[name]

