"""The field-based builders keep their output bytes: the SHA-256 of each
output's JSON, pinned from the builders that multiplied by polynomial
long division, on the extension fields GF(32), GF(49) and GF(81), the
prime 101, the three-factor order 140 = 4 * 5 * 7, the parallel classes
over GF(16), the affine lines of AG(2, 89) and AG(3, 11), and the
one-factorization of K_200."""

import hashlib
import json

import pytest

from cerg.arrays import oa_macneish, oa_prime_power
from cerg.geometry import design_affine_lines, design_one_factorization, parallel_classes


def _design(design):
    return [design.v, design.t, design.blocks.tolist(), design.resolution.tolist()]


def _lines(q, d):
    return _design(design_affine_lines(q, d))


def _classes(q):
    pcs = parallel_classes(q)
    return [pcs.normals, pcs.classes.tolist()]


CASES = {
    "oa_prime_power(32)": (
        lambda: oa_prime_power(32).cells.tolist(),
        "b463e60c3aab033bc392f19d945ec999cba69174b7559bddcfb0b57509ef49ef",
    ),
    "oa_prime_power(49)": (
        lambda: oa_prime_power(49).cells.tolist(),
        "c788fbfaf57722d48b61683f8a690a9afc619e4d91a0fa84f78bf7449bc186d0",
    ),
    "oa_prime_power(81)": (
        lambda: oa_prime_power(81).cells.tolist(),
        "b4788c94edb653de9d5cd16b9a9ff4b504d02f9ff794fc48a7a24cbd6f7bda7b",
    ),
    "oa_prime_power(101)": (
        lambda: oa_prime_power(101).cells.tolist(),
        "d29dc0be04886af3b7d7840c471915b9ed2a6bf8f29e866e02899ed4c0b23f38",
    ),
    "oa_macneish(140)": (
        lambda: oa_macneish(140).cells.tolist(),
        "016e67269f6dd75ac310ae1dbcecc7689bccd58fcf5b22b0eb7b01042b3065bd",
    ),
    "parallel_classes(16)": (
        lambda: _classes(16),
        "ae6a1c86e48896336e79e7e933e8f8ee170193106e2b7b4ba38571841bb95621",
    ),
    "design_affine_lines(89, 2)": (
        lambda: _lines(89, 2),
        "db94787e9aa9f992dab767ecf5df9449b6aef884fe58fe38d4819fef9d70bfc3",
    ),
    "design_affine_lines(11, 3)": (
        lambda: _lines(11, 3),
        "3160bcda1be67b4a5218c0c16189d5735e2065e1cb92cbcfb0688279dd45b2f2",
    ),
    "design_one_factorization(200)": (
        lambda: _design(design_one_factorization(200)),
        "b07a4e838a95a64467758abbeffb25dcbcedd75404c04d948d49fe37f73d409f",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_builder_output_keeps_its_digest(case):
    build, digest = CASES[case]
    text = json.dumps(build(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
