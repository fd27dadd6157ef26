"""Recorded bits of the value, density and dual marches.

For each model the couplings are frozen at m0, and the test pins the sha256
of the raw bytes of the value march (`solve_hjb`), its scheme residual, the
discounted march at lam = 0.7, the transport coefficients `a` and `b`, and
the density march's values and masses.  It also pins the `float.hex` of
three duality gaps, drawn as `picard_solve` draws them.  Raw bytes include
the sign of every zero, so a refactor of a stencil or a Hamiltonian that
reorders one operation fails here.

The coupled solve is pinned too: the sha256 of `picard_solve`'s returned u
and m, the `float.hex` of its gap history and its iteration count, for
model A in 1D and in 2D.
"""

import hashlib

import numpy as np
import pytest

from mfgdiff import DensityPath, TimeField, model_a, mollify_model, single_control_model
from mfgdiff.fixed_point import coupling_fields, picard_solve
from mfgdiff.fp import build_transport_operator, check_duality, solve_fp
from mfgdiff.hjb import grid_for, hjb_residual, solve_hjb, solve_hjb_lambda

# model builder and lattice (nx, nt)
_CASES = {
    "model_a_1d": (lambda: model_a(), (32, 1040)),
    "model_a_2d": (lambda: model_a(dim=2), (12, 400)),
    "single_control": (lambda: single_control_model(nu=1.0), (32, 210)),
    "mollified_a_1d": (lambda: mollify_model(model_a(horizon=0.05), 0.05), (8, 14)),
}


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _fingerprint(name):
    build, (nx, nt) = _CASES[name]
    model = build()
    grid = grid_for(model, nx=nx, nt=nt)
    m0 = model.m0.discretize(grid)
    f_path, g_slice = coupling_fields(model, grid, DensityPath.constant_in_time(grid, m0).values)
    u = solve_hjb(model, f_path, g_slice, grid)
    op = build_transport_operator(u, model)
    m = solve_fp(op, m0)
    rng = np.random.default_rng(11)
    gaps = []
    for _ in range(3):
        phi_t = rng.standard_normal(grid.shape)
        psi = TimeField(grid, rng.standard_normal((grid.nt + 1, *grid.shape)))
        gaps.append(float.hex(check_duality(m, op, phi_t, psi)))
    return {
        "u": _digest(u.values),
        "residual": _digest(hjb_residual(u, model, f_path).values),
        "u_lambda": _digest(solve_hjb_lambda(model, f_path, g_slice, grid, 0.7).values),
        "a": _digest(op.a),
        "b": _digest(op.b),
        "m": _digest(m.values),
        "mass": _digest(m.mass),
        "gaps": tuple(gaps),
    }


_RECORDED = {
    "model_a_1d": {
        "u": "631e4cf9329dab81dba3f29f12fe72e7e96bfa14518821f5e0dbd011c784ac4d",
        "residual": "20c72554ee973e60317cf2301f133c8c56ab47e430c18a61d9c9819d64c26b18",
        "u_lambda": "e3ccd4c46891edff4f722cd296c656c069680ee86930329a39f3192cbfd17449",
        "a": "8243d31c63acceab3362810bae58e04559d6bbdbaf6171eba0c520879af6b5fc",
        "b": "b05a76645ae6ea9598176678abd71cafd0115e7d4cf5d7f879c42626c105be67",
        "m": "68569dfa22858c39d619848451a832d196eb1351526956a34c44dfb130b9bee3",
        "mass": "7804c231203c65bbeb49f90c1d59b226c7a8b2a5f9c39c9647672166c4418e64",
        "gaps": ("0x1.8000000000000p-56", "0x1.0000000000000p-53", "0x1.0000000000000p-52"),
    },
    "model_a_2d": {
        "u": "d7f6eed795634736da400b2676ddebb04b69894b31fe40a0737b27aab056f4d2",
        "residual": "971552c05cb50cfeecfab91a6b5ccaba02d95a98e247c51646f41356c03aecdd",
        "u_lambda": "d0c859fa5b897618970638d72d2fa542bc72a89973fd354243a7643f7ce98b7f",
        "a": "93b2ab5ccda164aef558976e4361262038c41b42b7856969e843e3e867d70191",
        "b": "42b98e470acca7a064d59aa0e6737f9f8db40d82dbcd5e12034ec79638f3ceaf",
        "m": "99a88aeed7909d31a740e066e094e909cce760a353bb53302f2139f0032da2d6",
        "mass": "44f0a0adb4c42c1deedf61cdc8d2aac0593bb806eaf5c158ef9831a6afd7b939",
        "gaps": ("0x0.0p+0", "0x1.c71c71c71c71cp-55", "0x0.0p+0"),
    },
    "mollified_a_1d": {
        "u": "4b265e758c8fb9ca918944075a4ca8bf280e296cbbb4075d683d0ceaf62e0c65",
        "residual": "04cc2081d0e545b39b206edcd6b37d21cdbd09d8409f2b2433fe8aed151a1a92",
        "u_lambda": "1985b6c7bec53ba7904d7e162ad59629e2a0bd7e2b622df052406fbe93261f3d",
        "a": "727bcdb76e7a453c99e42d834e01e78224f6245f8cb9b1e7ca503403ad8fde14",
        "b": "ccb6b1219784c1f9bb9978f4766ff9534a10d7e6fbd6e95769181bbc5aa66f44",
        "m": "3be08c557b895d10881dd3deede2f45a39ef2a1d0b0e47c46068b8a58dbcaad3",
        "mass": "e628792f543ca7680525adbe103c87493ed0271c9444b4e9a61c06f95ffe2cf4",
        "gaps": ("0x1.8000000000000p-54", "0x1.0000000000000p-53", "0x1.8000000000000p-53"),
    },
    "single_control": {
        "u": "eb6c4a743c28a596a62407d591d7a06219074e7758fd59dc039fefc07881a1f6",
        "residual": "f1a61c96fa5ccfeb831623cc37ec152a80d22be2add732558d96bc7824aed0c2",
        "u_lambda": "0df78a87f7541892ebb20ae34cb0a4bb2142b7cd34b3ed648405f17bb03ba785",
        "a": "7c6161a140971fb8afea1aee03ad4e14bf1ebd2e8e41ca65053c4f52750cfbc1",
        "b": "2639b35770113a6fab7deeb9d86d172ad77bc63ab7fc6649aee65597b8c857b7",
        "m": "260333bb32f464c31847308d8e2917e0f825318ca5848ae69caaba9213d8fe33",
        "mass": "dc278eee84b211e7a2cd6850cdecf87d3e19a721ee91cb0ff11609ffdd874cc4",
        "gaps": ("0x1.8000000000000p-53", "0x1.0000000000000p-55", "0x1.0000000000000p-55"),
    },
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_march_bits_match_recording(name):
    assert _fingerprint(name) == _RECORDED[name]


# model builder, lattice (nx, nt) and tolerance of a coupled solve at the default damping
_COUPLED = {
    "model_a_1d": (lambda: model_a(), (32, 1040), 1e-4),
    "model_a_2d": (lambda: model_a(horizon=0.0625, dim=2), (8, 64), 1e-3),
}

_RECORDED_COUPLED = {
    "model_a_1d": {
        "u": "4f287c5ed3287f30522f5c537913b2154af8f23a3fea8ad0b2abf50baa72ff7b",
        "m": "b80c3e265f2c42c4ba74415f122be06ccfc6368ef4df1ac9f9cc9c6e841e169a",
        "gaps": (
            "0x1.7179a87fbaf15p-4", "0x1.2d1ec19f50e7dp-5", "0x1.e7679eb8eda53p-7",
            "0x1.87d4c82f67743p-8", "0x1.3abd074d4b515p-9", "0x1.fc6638793a49dp-11",
            "0x1.b07136dee753ep-12", "0x1.a9f30f31e6f56p-13", "0x1.a44501abe7f74p-14",
            "0x1.a08cdbccb20c0p-15",
        ),
        "iterations": 10,
    },
    "model_a_2d": {
        "u": "ba546cbf76a493c5309bfc54385ea9e9ba95b831f9a24c63f7b1a96ac38078bf",
        "m": "dc9e79f7cb26373ed4760b8d6592f3de848e4caec7415ca80c5dd7288b4d3af8",
        "gaps": (
            "0x1.f1ebfc2bd8111p-5", "0x1.ed36ffa0537cap-6", "0x1.e9e0ebaacf3f2p-7",
            "0x1.e74c1c64a081fp-8", "0x1.ee40702ed8d09p-9", "0x1.f6237c53e1b3bp-10",
            "0x1.fd9b9de15fec3p-11",
        ),
        "iterations": 7,
    },
}


@pytest.mark.parametrize("name", sorted(_COUPLED))
def test_coupled_solve_bits_match_recording(name):
    build, (nx, nt), tol = _COUPLED[name]
    model = build()
    result = picard_solve(model, grid_for(model, nx=nx, nt=nt), tol=tol)
    assert {
        "u": _digest(result.u.values),
        "m": _digest(result.m.values),
        "gaps": tuple(float.hex(float(g)) for g in result.report.gap_history),
        "iterations": result.report.iterations,
    } == _RECORDED_COUPLED[name]
