"""Gated recurrent network mapping a query feature to a bias vector.

The dim-length feature is split into T consecutive chunks and fed through a
single LSTM cell, then a zero-initialized linear head maps the final hidden
state to a dim-length bias. Zero head => zero bias at initialization, so the
adapted textual cache starts exactly at the frozen one.

Forward/backward take a batch: one row of (B, dim) per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import check_fits_memory
from .errors import ConfigError, ContractError, check_queries
from .numerics import Rng

GATES = ("i", "f", "o", "g")


@dataclass
class ConditionNetParams:
    dim: int
    chunk_count: int            # T
    hidden_size: int            # h
    # W_<gate> (h, dim/T) input, U_<gate> (h, h) recurrent and b_<gate> (h,)
    # bias of each gate, keyed by their checkpoint names
    gates: dict[str, np.ndarray]
    W_out: np.ndarray           # (dim, h), zero at init
    b_out: np.ndarray           # (dim,), zero at init

    @property
    def chunk_size(self) -> int:
        return self.dim // self.chunk_count

    def tensors(self) -> dict[str, np.ndarray]:
        return {**self.gates, "W_out": self.W_out, "b_out": self.b_out}


def init_condition_net(dim: int, chunk_count: int, hidden_size: int,
                       rng: Rng) -> ConditionNetParams:
    """Gate weights uniform(-1/sqrt(h), 1/sqrt(h)); forget-gate bias 1.0;
    output head exactly zero. A net larger than physical memory is refused."""
    if chunk_count < 1 or hidden_size < 1:
        raise ConfigError("chunk count and hidden size must be >= 1")
    if dim % chunk_count != 0:
        raise ConfigError(f"dim {dim} not divisible by chunk count {chunk_count}")
    h = hidden_size
    cs = dim // chunk_count
    check_fits_memory(8 * (len(GATES) * h * (cs + h + 1) + dim * (h + 1)),
                      f"hidden_size {h}")
    bound = 1.0 / np.sqrt(h)
    W = {g: rng.uniform(-bound, bound, (h, cs)) for g in GATES}
    U = {g: rng.uniform(-bound, bound, (h, h)) for g in GATES}
    gates = {}
    for g in GATES:     # W_i, U_i, b_i, W_f, ..: the order train checks them in
        gates.update({f"W_{g}": W[g], f"U_{g}": U[g],
                      f"b_{g}": np.ones(h) if g == "f" else np.zeros(h)})
    return ConditionNetParams(dim, chunk_count, h, gates, np.zeros((dim, h)),
                              np.zeros(dim))


@dataclass
class NetTape:
    """Per-step activations from one forward pass run with record=True,
    which the matching backward pass reads and does not change."""
    X: list = field(default_factory=list)        # chunks, (B, cs)
    gates: list = field(default_factory=list)    # dicts of (B, h)
    C: list = field(default_factory=list)        # cell states incl. c_0
    H: list = field(default_factory=list)        # hidden states incl. h_0
    tanh_C: list = field(default_factory=list)   # tanh of C[1:], per step


def condition_forward(params: ConditionNetParams, f_test: np.ndarray, *,
                      record: bool = False):
    """Run the recurrence over queries (B, dim); returns (s, tape) with s
    (B, dim). Only record=True keeps the tape condition_backward needs;
    otherwise just the running (h, c) state is kept and the tape is None."""
    F = check_queries(f_test, params.dim)
    B = F.shape[0]
    h = params.hidden_size
    cs = params.chunk_size
    p = params.gates

    hs = np.zeros((B, h))
    cs_state = np.zeros((B, h))
    scratch = np.empty((B, h))
    tape = NetTape(C=[cs_state], H=[hs]) if record else None
    # below ~-709 a gate's exp(-x) overflows and its sigmoid is exactly 0
    with np.errstate(over="ignore"):
        for t in range(params.chunk_count):
            x = F[:, t * cs:(t + 1) * cs]
            a = np.empty((len(GATES), B, h))   # pre-activations, then gates
            for k, name in enumerate(GATES):
                np.matmul(x, p[f"W_{name}"].T, out=a[k])
                if t:   # h_0 = 0 adds nothing
                    a[k] += np.matmul(hs, p[f"U_{name}"].T, out=scratch)
                a[k] += p[f"b_{name}"]
            i, f, o, g = a
            sig = a[:3]     # i, f, o: 1 / (1 + exp(-x)), in place
            np.exp(np.negative(sig, out=sig), out=sig)
            sig += 1.0
            np.divide(1.0, sig, out=sig)
            np.tanh(g, out=g)
            cs_state = f * cs_state
            cs_state += np.multiply(i, g, out=scratch)
            tanh_c = np.tanh(cs_state)
            hs = o * tanh_c
            if tape is not None:
                tape.X.append(x)
                tape.gates.append(dict(zip(GATES, a)))
                tape.C.append(cs_state)
                tape.H.append(hs)
                tape.tanh_C.append(tanh_c)
    s = hs @ params.W_out.T + params.b_out
    return s, tape


def condition_backward(params: ConditionNetParams, tape: NetTape,
                       d_s: np.ndarray):
    """Exact reverse-mode gradients of s w.r.t. every parameter, keyed like
    tensors(). The query features are frozen, so no gradient flows to them.
    The tape is only read, so a second call returns the same gradients; a
    missing tape (a forward pass run with record=False) raises ContractError.
    """
    if tape is None:
        raise ContractError("no NetTape: the forward pass ran with "
                            "record=False")

    dS = np.asarray(d_s, dtype=np.float64)
    T = params.chunk_count

    grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
    grads["W_out"] = dS.T @ tape.H[T]
    grads["b_out"] = dS.sum(axis=0)
    dh = dS @ params.W_out                  # (B, h)
    dc = np.zeros_like(dh)
    dz = np.empty((len(GATES), *dh.shape))  # d(pre-activation), GATES order
    scratch = np.empty_like(dh)
    for t in range(T - 1, -1, -1):
        g = tape.gates[t]
        tanh_c = tape.tanh_C[t]
        np.multiply(dh, tanh_c, out=dz[2])                  # d o
        dc += dh * g["o"] * (1.0 - tanh_c ** 2)
        np.multiply(dc, g["g"], out=dz[0])                  # d i
        np.multiply(dc, g["i"], out=dz[3])                  # d g
        np.multiply(dc, tape.C[t], out=dz[1])               # d f
        dc *= g["f"]
        for k, name in enumerate("ifo"):
            dz[k] *= g[name]
            dz[k] *= 1.0 - g[name]
        dz[3] *= 1.0 - g["g"] ** 2
        dh.fill(0.0)    # d h_{t-1}, summed from 0 in GATES order
        for k, name in enumerate(GATES):
            grads[f"W_{name}"] += dz[k].T @ tape.X[t]
            grads[f"b_{name}"] += dz[k].sum(axis=0)
            if t:   # h_0 = 0: no U gradient from it, and no dh_0 is needed
                grads[f"U_{name}"] += dz[k].T @ tape.H[t]
                dh += np.matmul(dz[k], params.gates[f"U_{name}"], out=scratch)
    return grads
