"""Write certify_reference.json: sigma_min of every certify pool variant.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  For each variant of the certify pool it
runs the workload's task and stores each certificate's sigma_min.  Before
storing, every value is checked against an independent estimate: Lanczos
(``eigsh``) on (A^T A)^-1 applied through a sparse LU of the scaled
operator A, so a dense-SVD value and an inverse-power value are both
confirmed by a third method.  The file only needs regenerating when the pool
or the certify inputs change, never to make a changed program pass.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import scipy.sparse.linalg as spla  # noqa: E402

from mfg_lab.stability import assemble_operator  # noqa: E402
from workloads import CERTIFY_POOL, REFERENCE_FILE, CertifyWorkload  # noqa: E402

AGREEMENT = 1e-8


def lanczos_sigma_min(model, base, t1) -> float:
    A = assemble_operator(model, base, t1).scaled_sparse().tocsc()
    lu = spla.splu(A)
    inv_gram = spla.LinearOperator(A.shape, matvec=lambda x: lu.solve(lu.solve(x, trans="T")),
                                   dtype=float)
    lam = spla.eigsh(inv_gram, k=1, which="LA", tol=1e-14, return_eigenvectors=False)[0]
    return 1.0 / math.sqrt(lam)


def main() -> int:
    wl = CertifyWorkload(reference_file=None)
    table = {}
    for variant in range(CERTIFY_POOL):
        inp = wl.variant_inputs(variant)
        base_1d, base_2d, certs = wl.run(inp)
        if not (base_1d.converged and base_2d.converged):
            raise SystemExit(f"variant {variant}: base solve did not converge")
        row = {}
        for key, cert in certs.items():
            model, base = (inp["model_2d"], base_2d) if key.startswith("2d") else (
                inp["model_1d"], base_1d)
            check = lanczos_sigma_min(model, base, cert.t1_index)
            if cert.verdict != "STABLE" or abs(check - cert.sigma_min) > AGREEMENT * check:
                raise SystemExit(
                    f"variant {variant} {key}: {cert.verdict} sigma_min {cert.sigma_min!r}"
                    f" ({cert.method}) vs Lanczos {check!r}")
            row[key] = cert.sigma_min
        table[str(variant)] = row
        print(variant, json.dumps(row), flush=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
