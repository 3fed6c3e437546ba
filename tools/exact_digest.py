"""Digest the exact evaluators' and the packet kernel's outputs, bit for bit.

Every value is fed to SHA-256 as its ``float.hex()`` string, with the call
that made it; a call that raises is fed the name of the exception type. Two
checkouts whose digests agree return the same bits on the whole grid, so a
change meant to leave every output bit-identical can be checked by running
this tool on both.

The grid:

- ``discrete``: p in {0.05, 0.3, 0.5, 0.51, 0.7, 0.97} x L in {1, 2, 20,
  100, 3000} x N in {1, 2, 10, 100, 1000, 100000}: ``mean_loss_rate_exact``,
  ``loss_variance_exact``, ``compressibility``, ``correlator_r2`` on both
  branches at M = N + 1 and M = 10 N, and ``green_function`` at a few
  (n, frm, to);
- ``continuum``: a in {-1, 0, 0.5, 1, 2} x sigma2 in {0.5, 2} x t in
  {1e-3, 1e-2, 0.1, 1, 10, 100}: ``loss_moment`` k = 2..4,
  ``loss_probability`` and ``loss_pdf`` on 8-point Gauss-Legendre nodes of
  four panels of [0, p(1)(tau + 6 sqrt(tau) + 1)];
- ``correlator``: the same a x sigma2 x (t1, t2, T) in {(1e-3, 1e-3, 1e-2),
  (0.01, 0.05, 0.1), (0.5, 0.5, 1), (1, 2, 10)}: ``loss_correlator`` and
  ``loss_correlator_asymptotic`` on its ``"window"`` branch;
- ``packet``: seeded ``simulate.run`` logs with exponential gaps of mean
  0.01 and deterministic, uniform or exponential sizes of mean 0.01 x r_out
  in {0.98, 1, 1.02, 50} x initial_queue in {0, 0.5, 1}: every grid sample
  of ``queue_samples``, ``cum_lost`` and ``cum_idle``, and every total and
  count. The critical r_out keep the queue on both walls; at 50 it idles;
- ``walk``: seeded ``discrete.simulate_path`` runs of 10007 steps at the
  same p x L in {1, 2, 20, 100, 3000, 16383, 16384, 40000} x burn_in in
  {0, 4099}, and one run of 2^20 + 3 steps at p = 1/2, L = 20: each path's
  start and end states and its loss steps. At p = 0.05 and 0.97 the drift
  carries the net shift of long stretches past L, where their maps are
  constant; L = 16383 is the largest capacity whose byte maps are int16.

Usage::

    python tools/exact_digest.py [--records PATH]

Imports ``queueloss`` from ``src/`` next to this directory and prints one
``part values sha256`` row per part: ``discrete``, ``continuum``, the
``all`` row over those two, then ``packet``, ``correlator`` and ``walk``,
which ``all`` leaves out.
``--records PATH`` also writes every hashed record to PATH, one line each,
as its part's name followed by the hashed text: the call's label and
arguments, then the hex form of each value or the exception's type name.
Two checkouts' record files compare record by record (``diff``, or a
script that reads the hex values back with ``float.fromhex``).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from queueloss import discrete as D  # noqa: E402
from queueloss import fokker_planck as F  # noqa: E402
from queueloss import simulate as S  # noqa: E402

_GL_NODES = np.polynomial.legendre.leggauss(8)[0]


@dataclass(frozen=True)
class Grid:
    ps: tuple = (0.05, 0.3, 0.5, 0.51, 0.7, 0.97)
    Ls: tuple = (1, 2, 20, 100, 3000)
    Ns: tuple = (1, 2, 10, 100, 1000, 100000)
    #: (n, frm, to) of green_function, clipped to 0..L
    steps: tuple = ((0, 0, 0), (1, 0, 1), (65, 0, 2000), (200, 3000, 0), (5000, 1, 1))
    drifts: tuple = (-1.0, 0.0, 0.5, 1.0, 2.0)
    sigma2s: tuple = (0.5, 2.0)
    times: tuple = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
    panels: int = 4
    #: (t1, t2, T) of the continuum correlators
    windows: tuple = ((1e-3, 1e-3, 1e-2), (0.01, 0.05, 0.1), (0.5, 0.5, 1.0), (1.0, 2.0, 10.0))
    size_laws: tuple = ("deterministic", "uniform", "exponential")
    r_outs: tuple = (0.98, 1.0, 1.02, 50.0)
    initial_queues: tuple = (0.0, 0.5, 1.0)
    duration: float = 1000.0


class _Digest:
    """SHA-256 over ``(label, value)`` records; a value is a float's hex
    form or, for a call that raised, the exception's type name. Each
    record's text also goes to ``sink(text)`` when one is given."""

    def __init__(self, sink=None) -> None:
        self.h = hashlib.sha256()
        self.count = 0
        self.sink = sink

    def _record(self, text: str) -> None:
        self.h.update(text.encode())
        if self.sink is not None:
            self.sink(text)

    def call(self, label: str, fn, *args) -> None:
        try:
            value = float(fn(*args)).hex()
        except Exception as exc:  # noqa: BLE001 - the error's type is the output
            value = type(exc).__name__
        self._record(f"{label} {args!r} {value}\n")
        self.count += 1

    def values(self, label: str, args: tuple, values) -> None:
        """One record of many floats, as their hex forms."""
        hexes = " ".join(float(v).hex() for v in values)
        self._record(f"{label} {args!r} {hexes}\n")
        self.count += len(values)


def discrete_part(grid: Grid, sink=None) -> _Digest:
    out = _Digest(sink)
    for p in grid.ps:
        for L in grid.Ls:
            params = D.DiscreteQueueParams(p=p, L=L)
            out.call("rate", D.mean_loss_rate_exact, params)
            for N in grid.Ns:
                out.call("variance", D.loss_variance_exact, params, N)
                out.call("chi", D.compressibility, params, N)
                for M in (N + 1, 10 * N):
                    for branch in ("exact", "analytic"):
                        out.call("r2", D.correlator_r2, params, N, M, branch)
            for n, frm, to in grid.steps:
                out.call("green", D.green_function, params, n, min(frm, L), min(to, L))
    return out


def pdf_nodes(params: F.FpParams, t: float, panels: int) -> list[float]:
    """Gauss-Legendre nodes on ``panels`` equal panels of [0, top],
    top = p(1)(tau + 6 sqrt(tau) + 1), the x range of a loss_pdf curve."""
    tau = 0.5 * params.sigma2 * t
    top = float(F.stationary_density(params, 1.0)) * (tau + 6.0 * math.sqrt(tau) + 1.0)
    edges = np.linspace(0.0, top, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (half * (_GL_NODES + 1.0) + edges[:-1, None]).ravel().tolist()


def _default_ctrl(fn):
    """``fn`` called with ``SeriesControl()`` as its second argument, so that
    a hashed call label holds only the arguments that select a value."""
    ctrl = F.SeriesControl()
    return lambda params, *rest: fn(params, ctrl, *rest)


def continuum_part(grid: Grid, sink=None) -> _Digest:
    out = _Digest(sink)
    moment, p_loss, pdf = map(_default_ctrl, (F.loss_moment, F.loss_probability, F.loss_pdf))
    for a in grid.drifts:
        for s2 in grid.sigma2s:
            params = F.FpParams(a=a, sigma2=s2)
            for t in grid.times:
                for k in (2, 3, 4):
                    out.call("moment", moment, params, k, t)
                out.call("p_loss", p_loss, params, t)
                for x in pdf_nodes(params, t, grid.panels):
                    out.call("pdf", pdf, params, x, t)
    return out


def correlator_part(grid: Grid, sink=None) -> _Digest:
    out = _Digest(sink)
    corr = _default_ctrl(F.loss_correlator)
    for a in grid.drifts:
        for s2 in grid.sigma2s:
            params = F.FpParams(a=a, sigma2=s2)
            for t1, t2, T in grid.windows:
                out.call("corr", corr, params, t1, t2, T)
                out.call("corr_window", F.loss_correlator_asymptotic, params, t1, t2, T, "window")
    return out


def _size_law(kind: str) -> S.Distribution:
    if kind == "uniform":
        return S.Distribution(kind="uniform", low=0.005, high=0.015)
    return S.Distribution(kind=kind, mean=0.01)


def packet_part(grid: Grid, sink=None) -> _Digest:
    out = _Digest(sink)
    gaps = S.Distribution(kind="exponential", mean=0.01)
    for kind in grid.size_laws:
        for r_out in grid.r_outs:
            traffic = S.TrafficModel(interarrival=gaps, packet_size=_size_law(kind), r_out=r_out)
            for q0 in grid.initial_queues:
                log = S.run(traffic, duration=grid.duration, seed=1, initial_queue=q0)
                args = (kind, r_out, q0)
                for name in ("queue_samples", "cum_lost", "cum_idle"):
                    out.values(name, args, getattr(log, name).tolist())
                out.values("totals", args, [
                    log.final_queue, log.arrived, log.serviced, log.dropped, log.idle_time,
                    log.n_arrivals, log.n_drops])
    return out


def walk_part(grid: Grid, sink=None) -> _Digest:
    out = _Digest(sink)
    runs = [(p, L, 10007, burn_in)
            for p in grid.ps for L in (1, 2, 20, 100, 3000, 16383, 16384, 40000)
            for burn_in in (0, 4099)]
    # The one long run crosses a chunk boundary of simulate_path.
    for args in runs + [(0.5, 20, (1 << 20) + 3, 0)]:
        p, L, n_steps, burn_in = args
        path = D.simulate_path(D.DiscreteQueueParams(p=p, L=L), n_steps, burn_in=burn_in, seed=1)
        out.values("walk", args, [path.start, path.end, *path.loss_steps.tolist()])
    return out


def digests(grid: Grid, records=None) -> dict[str, tuple[int, str]]:
    """``part -> (values, sha256)`` for every part, with ``all`` over the
    ``discrete`` and ``continuum`` parts. Given a text file ``records``, every
    record is also written there, prefixed with its part's name."""

    def sink(name):
        return None if records is None else (lambda text: records.write(f"{name} {text}"))

    parts = {name: fn(grid, sink(name))
             for name, fn in (("discrete", discrete_part), ("continuum", continuum_part))}
    total = hashlib.sha256("".join(d.h.hexdigest() for d in parts.values()).encode())
    rest = {name: fn(grid, sink(name))
            for name, fn in (("packet", packet_part), ("correlator", correlator_part),
                             ("walk", walk_part))}
    return {**{name: (d.count, d.h.hexdigest()) for name, d in parts.items()},
            "all": (sum(d.count for d in parts.values()), total.hexdigest()),
            **{name: (d.count, d.h.hexdigest()) for name, d in rest.items()}}


def main(argv: list[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=Path, help="write every hashed record to this file")
    args = parser.parse_args(list(argv))
    if args.records is None:
        rows = digests(Grid())
    else:
        with args.records.open("w") as records:
            rows = digests(Grid(), records)
    for name, (count, sha) in rows.items():
        print(name, count, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
