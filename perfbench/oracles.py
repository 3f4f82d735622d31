"""Output checks for the benchmark's workloads, run outside the timed region.

Each oracle takes an op and the text the CLI wrote, and returns a list of
problems (empty when the output is right). The references are numpy and the
matrix-free operator `splitting.apply_iterative`, which shares no code with
the dense solve behind the timed commands. Tolerances are fixed here.
"""

import json
import math
import re

import numpy as np

# A defective eigenvalue of multiplicity m moves by about eps^(1/m), so single
# eigenvalues are matched loosely; their power sums, which stay well
# conditioned, are matched to the traces of T and T^2 tightly.
EIG_TOL = 1e-4
POWER_SUM_TOL = 1e-9
# Singular values of T - I below this (times 1 + ||T||) count as zero.
RANK_TOL = 1e-8
# Defects are norms of quadratic expressions in T.
DEFECT_TOL = 1e-8
RHO_TOL = 1e-6
# The CLI's classification threshold for the defects, times 1 + ||T||^2.
CLASSIFY_TOL = 1e-9
# Relative gap of the measured rate from the predicted one, on converged runs.
RATE_TOL = 0.05
K_STOP_GAP = 1
EIGENVALUE_ONE_TOL = 1e-7


def matrix_free_operator(graphsplit, config):
    """The operator T of a config, column by column from the matrix-free sweep."""
    cfg = graphsplit.cli.load_config(config)
    op = graphsplit.splitting.build(cfg.graph_pair, cfg.spaces)
    eye = np.eye(op.size)
    columns = [graphsplit.splitting.apply_iterative(op, eye[:, j])[0] for j in range(op.size)]
    return np.column_stack(columns), cfg.graph_pair.same


def _rho1(eigs, scale):
    rest = [abs(lam) for lam in eigs if abs(lam - 1.0) > EIGENVALUE_ONE_TOL * scale]
    return max(rest, default=0.0)


def _unmatched(measured, reference, tol):
    """Entries of `measured` that find no unused entry of `reference` within tol."""
    free = list(reference)
    missing = []
    for lam in measured:
        if not free:
            missing.append(lam)
            continue
        j = min(range(len(free)), key=lambda i: abs(free[i] - lam))
        if abs(free[j] - lam) <= tol:
            free.pop(j)
        else:
            missing.append(lam)
    return missing


def check_certify(graphsplit, op, text):
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    t, same = matrix_free_operator(graphsplit, op.config)
    size = t.shape[0]
    nrm = float(np.linalg.norm(t, 2))
    problems = []

    eigs = [complex(e["re"], e["im"]) for e in out["eigenvalues"]]
    reference = np.linalg.eigvals(t)
    if len(eigs) != size:
        problems.append(f"{len(eigs)} eigenvalues for a {size} x {size} operator")
    missing = _unmatched(eigs, reference, EIG_TOL * (1.0 + nrm))
    if missing:
        problems.append(f"eigenvalues {missing[:3]} not in the numpy spectrum")
    for power, trace in ((1, np.trace(t)), (2, np.trace(t @ t))):
        total = sum(lam**power for lam in eigs)
        if abs(total - trace) > POWER_SUM_TOL * size * (1.0 + nrm) ** power:
            problems.append(f"sum of eigenvalues^{power} {total:.12g} vs trace {trace:.12g}")

    sv = np.linalg.svd(t - np.eye(size), compute_uv=False)
    fix_dim = int(np.count_nonzero(sv <= RANK_TOL * (1.0 + nrm)))
    if out["fix_dim"] != fix_dim:
        problems.append(f"fix_dim {out['fix_dim']}, numpy rank gives {fix_dim}")

    if abs(out["rho1"] - _rho1(reference, 1.0 + nrm)) > RHO_TOL:
        problems.append(f"rho1 {out['rho1']} vs numpy {_rho1(reference, 1.0 + nrm)}")

    gram = t.T @ t
    threshold = CLASSIFY_TOL * (1.0 + nrm * nrm)
    for key, flag, matrix in (
        ("normality_defect", "is_normal", gram - t @ t.T),
        ("iso_defect", "is_iso_averaged", 2.0 * gram - t - t.T),
    ):
        defect = float(np.linalg.norm(matrix, 2))
        if abs(out[key] - defect) > DEFECT_TOL * (1.0 + nrm * nrm):
            problems.append(f"{key} {out[key]} vs numpy {defect}")
        # Only flags far from the threshold are decided by the reference.
        if defect < 0.1 * threshold and out[flag] is not True:
            problems.append(f"{flag} false with numpy defect {defect:.3e}")
        if defect > 10.0 * threshold and out[flag] is not False:
            problems.append(f"{flag} true with numpy defect {defect:.3e}")
    if same and out["is_iso_averaged"] is not True:
        problems.append("G = G' but the map is not classified iso-averaged")
    return problems


def _rows(text):
    lines = text.strip().split("\n")
    if lines[0] != "theta,k_stop,rho1_predicted,rho1_measured":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        theta, k_stop, predicted, measured = line.split(",")
        rows.append(
            (
                float(theta),
                int(k_stop) if k_stop else None,
                float(predicted),
                float(measured) if measured else None,
            )
        )
    return rows


def check_tune(graphsplit, op, text):
    try:
        rows = _rows(text)
    except ValueError as exc:
        return [f"output is not the sweep CSV: {exc}"]
    t, same = matrix_free_operator(graphsplit, op.config)
    size = t.shape[0]
    problems = []
    rho1 = _rho1(np.linalg.eigvals(t), 1.0 + float(np.linalg.norm(t, 2)))
    for theta, k_stop, predicted, measured in rows:
        if same:
            expected = math.sqrt(theta * (2.0 - theta) * rho1 * rho1 + (1.0 - theta) ** 2)
        else:
            relaxed = theta * t + (1.0 - theta) * np.eye(size)
            expected = _rho1(np.linalg.eigvals(relaxed), 1.0 + float(np.linalg.norm(relaxed, 2)))
        if abs(predicted - expected) > RHO_TOL:
            problems.append(f"theta {theta}: rho1_predicted {predicted} vs numpy {expected}")
        if k_stop is not None and measured is not None:
            if abs(measured - predicted) > RATE_TOL * (1.0 - predicted):
                problems.append(f"theta {theta}: measured rate {measured} vs predicted {predicted}")
    if same:
        stops = {round(theta, 9): k_stop for theta, k_stop, _, _ in rows}
        for theta, k_stop in stops.items():
            mirror = stops.get(round(2.0 - theta, 9))
            if k_stop is not None and mirror is not None and abs(k_stop - mirror) > K_STOP_GAP:
                problems.append(f"k_stop {k_stop} at {theta} vs {mirror} at {2.0 - theta:.9g}")
    return problems


_SUMMARY = re.compile(r"^summary: (\d+)/(\d+) trials consistent", re.MULTILINE)


def check_verify(graphsplit, op, text):
    if op.command == "demo":
        name = op.args[0]
        lines = text.strip().split("\n")
        if lines[0] != f"example {name}: PASS" or any("[FAIL]" in line for line in lines):
            return [f"demo {name} did not pass"]
        return []
    match = _SUMMARY.search(text)
    if match is None:
        return ["no verify summary line"]
    good, total = int(match.group(1)), int(match.group(2))
    if total < 1 or good != total:
        return [f"verify summary {good}/{total} trials consistent"]
    return []


ORACLES = {"certify": check_certify, "tune": check_tune, "verify": check_verify}
