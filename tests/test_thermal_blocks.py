"""The thermal estimators stream their samples in blocks: pins across block edges.

Every value below was recorded from the whole-batch estimators, before the
sampler filtered its noise in blocks of samples.  Each transform and each
reduction acts on one sample at a time, so the bits must hold under the
default block budget and with the budget cut to 1 and to 7 samples.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from bosegas.thermal import (
    FieldGrid,
    PolynomialPerturbation,
    ThermalFieldParams,
    renormalized_mixing,
    reweighted_state,
    sample_fields,
)
from bosegas.thermal import fields

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# per-sample sizes of 1024, 1024 and 2048 floats: blocks of 64, 64 and 32
# samples under the default budget of 2^16 floats
GRIDS = {
    1: FieldGrid(beta=1.0, n_tau=16, d=1, L=4.0, n_x=64),
    2: FieldGrid(beta=1.0, n_tau=4, d=2, L=4.0, n_x=16),
    3: FieldGrid(beta=1.0, n_tau=4, d=3, L=4.0, n_x=8),
}
DEFAULT_BLOCK = {1: 64, 2: 64, 3: 32}


def block_params(d, critical):
    grid = GRIDS[d]
    if critical:
        return ThermalFieldParams(grid=grid, mu=0.0, critical=True, c=1.0)
    return ThermalFieldParams(grid=grid, mu=0.6)


def block_pert(d, kernel):
    grid = GRIDS[d]
    if kernel:
        return PolynomialPerturbation(coeffs=(0.5, 0.0, 1.0), lam=1e-3, mollifier_width=2.5 * grid.a,
                                      kernel=lambda r: np.exp(-(r**2)))
    return PolynomialPerturbation(coeffs=(0.0, 0.3, 1.0, 0.0, 1.0), lam=1e-2, mollifier_width=2.5 * grid.a)


def mixing_pert(d, kernel):
    grid = GRIDS[d]
    return PolynomialPerturbation(coeffs=(0.0, 0.0, 1.0, 0.0, 1.0), lam=1e-5 if kernel else 1e-3,
                                  mollifier_width=2.5 * grid.a,
                                  kernel=(lambda r: np.exp(-(r**2))) if kernel else None)


def probe_vector(d):
    grid = GRIDS[d]
    x = np.indices(grid.spatial_shape) * grid.a
    return 0.3 * np.cos(2 * np.pi * x.sum(axis=0) / grid.L) + 0.1


def sample_sizes(d):
    """n = 1, one block, and two blocks and five samples under the default budget."""
    block = DEFAULT_BLOCK[d]
    return (1, block, 2 * block + 5)


def sample_digests(d, critical):
    p = block_params(d, critical)
    return tuple(hashlib.sha256(sample_fields(p, n, 17 + n).tobytes()).hexdigest() for n in sample_sizes(d))


def reweighted_pins(d, critical, kernel):
    rec = reweighted_state(block_params(d, critical), block_pert(d, kernel), probe_vector(d),
                           n_samples=300, seed=23)
    return tuple(float(rec[key]).hex() for key in ("re", "im", "re_err", "im_err", "ess"))


def mixing_pins(d, kernel):
    rep = renormalized_mixing(block_params(d, True), mixing_pert(d, kernel), 4, 4, n_samples=300, seed=29)
    return float(rep["var_r"]).hex(), float(rep["var_r_jackknife_err"]).hex()


SAMPLE_DIGESTS = {
    (1, False): ('0d9b555113210c24303f58223d5c0ec6e041695a619846c438363759e9bbd877', 'de22624061b1b7d53a894c1da04e7e1a8d98efacb6a88d5d203c2b684511961b', '955758f8fb74bf3b8e8cd446cca48d4c20ff189fe3ec78a592d5708579833e17'),
    (1, True): ('836eaa95eed857be0851fb162386465afe259b213cbd281ce606700f2f89c41a', 'b4754b883f405a29eedface35f5f5a6622aea338b6d37d1924f510e7198cb9c0', '65641c8b9a98e855f4cf862090cb17aa54487d6edae049fce7148f5f64b352b8'),
    (2, False): ('a44829cba253111ee748f483d186f975d5837fb8545c63e60a335025617638fd', '59557e90798d10128a5b128436cae08a18c8102fb64bc183ebd3752591be9a20', '70c806364a478154c37b7bf23922aef13f8cc3ef7a76ada41dd4e25b8f42fae7'),
    (2, True): ('d56fa08658c7169f60ba81b50f40d4a4912b8e5aeb9f6a570fdb72593c9dcc94', '00cc1f3f004b21fd201353793174d08a6a1ecd278d0ac746c3af277db26352d8', '854d52821355ad5e9b451c6ca501ec80b99df8f897a021f6e0db932ca3ab9e4a'),
    (3, False): ('793142cc2c8b5bb88a01553db57b205dab29a8826af6b9ca250a5b660110f4a2', '245f19b1bda3d1d3915a6df05e41df4ed2276bc84434e1750bcb3aed30690af9', 'e488a0f2402e633dcf0f6847af3fc251dec53afc5a76f48d7ac4c69c8e93e788'),
    (3, True): ('e45f732b51c5e75407febffba872d850d16b2abc981b9e5a8917e28138628816', 'ba3b29fa05af0faee3a3e0315b3e05f8893f3a3479c57995cbe6477c18effb19', '4beb2105754f7487dfdb78c053c2771a7a1efcc67bf33c552966c7b39e1aa037'),
}
REWEIGHTED = {
    (1, False, False): ('0x1.c28b08ee999dbp-1', '-0x1.79ee92397cbf3p-6', '0x1.28a8768744f7bp-7', '0x1.b114c2b117a48p-6', '0x1.0676c1b7da5c0p+8'),
    (1, False, True): ('0x1.b6a1fefeac53bp-1', '-0x1.308a9ffeae33cp-5', '0x1.5e2c5dd29e3d5p-7', '0x1.c0a5096251a6bp-6', '0x1.2a4cc9c39a3b2p+8'),
    (1, True, False): ('0x1.b84df7e02b04ep-1', '-0x1.c681ac531220fp-6', '0x1.480df10a3ad26p-7', '0x1.db18d75cba115p-6', '0x1.ec83197b71479p+7'),
    (1, True, True): ('0x1.a5488dc32f5a9p-1', '-0x1.e580255e12218p-7', '0x1.79bbebf7f7b5dp-7', '0x1.ef35a4b69a00dp-6', '0x1.2888122a4b5c2p+8'),
    (2, False, False): ('0x1.1b402d9a0692ap-1', '-0x1.6e0e9a8ad0dfap-5', '0x1.c58cf891746d3p-6', '0x1.405cd490d1a22p-5', '0x1.281355523a165p+8'),
    (2, False, True): ('0x1.150b1b2785aadp-1', '-0x1.5c9764eeb8c91p-5', '0x1.ce6e08f96340dp-6', '0x1.421c653491272p-5', '0x1.2b8c5e78c2f01p+8'),
    (2, True, False): ('0x1.ad41d5081541ap-2', '-0x1.a75eb3435e22ap-5', '0x1.1d049d13b1971p-5', '0x1.680e653ce1707p-5', '0x1.e8850823bcbfcp+7'),
    (2, True, True): ('0x1.3a0dfe8ee0a65p-2', '-0x1.ecf178a56eab9p-6', '0x1.31b487dc050f7p-5', '0x1.557fd74329f54p-5', '0x1.168a4603839d5p+8'),
    (3, False, False): ('0x1.1ad37c1b6f374p-4', '0x1.66e9c123c01e7p-8', '0x1.4e1b30e415ff8p-5', '0x1.4f44f3673d404p-5', '0x1.2abd1cab05bcep+8'),
    (3, False, True): ('0x1.0547bcdc52df0p-4', '0x1.502c306912f97p-7', '0x1.4e20fc54ac8a1p-5', '0x1.4e87086822bcep-5', '0x1.2bb99627e8bcap+8'),
    (3, True, False): ('-0x1.621cca74f8454p-3', '0x1.131c01e925c2ap-4', '0x1.78d876943b10ap-5', '0x1.994a5e343b103p-5', '0x1.a38bc7f274b75p+7'),
    (3, True, True): ('-0x1.3d4d10a577050p-3', '0x1.151ef81736809p-4', '0x1.6a2842fc64412p-5', '0x1.836ccb75f9ec3p-5', '0x1.cf94892331c41p+7'),
}
MIXING = {
    (1, False): ('0x1.77679ea4feb64p+3', '0x1.4b769638b6084p-6'),
    (1, True): ('0x1.c7bfb3d75a236p+2', '0x1.797e673e6a8fdp-5'),
    (2, False): ('0x1.1df8583063df9p+3', '0x1.d042d54e38ad8p-8'),
    (2, True): ('0x1.c6b6a94361a28p+2', '0x1.0cdb359001ae5p-7'),
    (3, False): ('0x1.3f632d1de8ee4p+2', '0x1.a9498fe93c456p-13'),
    (3, True): ('0x1.47f08bc36801cp+2', '0x1.8689da9f9772ep-11'),
}


@pytest.fixture(params=[None, 1, 7], ids=["default", "block1", "block7"])
def budget(request, monkeypatch):
    """Cut the block budget to the given number of samples of the grid in use."""

    def set_for(d):
        if request.param is not None:
            monkeypatch.setattr(fields, "_BLOCK_FLOATS", request.param * GRIDS[d].n_tau * GRIDS[d].n_x**d)

    return set_for


def test_default_blocks():
    """The pinned sizes sit at block edges under the default budget."""
    for d, grid in GRIDS.items():
        assert fields._BLOCK_FLOATS // (grid.n_tau * grid.n_x**d) == DEFAULT_BLOCK[d]


@pytest.mark.parametrize("critical", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_fields_bits(d, critical, budget):
    budget(d)
    assert sample_digests(d, critical) == SAMPLE_DIGESTS[d, critical]


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("critical", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_reweighted_state_bits(d, critical, kernel, budget):
    budget(d)
    assert reweighted_pins(d, critical, kernel) == REWEIGHTED[d, critical, kernel]


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_renormalized_mixing_bits(d, kernel, budget):
    budget(d)
    assert mixing_pins(d, kernel) == MIXING[d, kernel]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_fields_memory(d):
    """Only the output is batch-sized: numpy's traced peak over about 20 blocks
    stays within 1.25 times the output (the whole-batch sampler read 2-2.3)."""
    p = block_params(d, True)
    sample_fields(p, 2, 0)  # a first call's lazy imports and caches stay outside the trace
    tracemalloc.start()
    try:
        phi = sample_fields(p, 20 * DEFAULT_BLOCK[d], 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * phi.nbytes
