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
from .errors import ConfigError, ContractError, ShapeError
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


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class NetTape:
    """Per-step activations from one forward pass run with record=True;
    consumed once by the matching backward pass."""
    X: list = field(default_factory=list)        # chunks, (B, cs)
    gates: list = field(default_factory=list)    # dicts of (B, h)
    C: list = field(default_factory=list)        # cell states incl. c_0
    H: list = field(default_factory=list)        # hidden states incl. h_0
    consumed: bool = False


def condition_forward(params: ConditionNetParams, f_test: np.ndarray, *,
                      record: bool = False):
    """Run the recurrence over queries (B, dim); returns (s, tape) with s
    (B, dim). Only record=True keeps the tape condition_backward needs;
    otherwise just the running (h, c) state is kept and the tape is None."""
    F = np.asarray(f_test, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != params.dim:
        raise ShapeError(f"queries shape {F.shape} incompatible with dim "
                         f"{params.dim}")
    B = F.shape[0]
    h = params.hidden_size
    cs = params.chunk_size
    p = params.gates

    hs = np.zeros((B, h))
    cs_state = np.zeros((B, h))
    tape = NetTape(C=[cs_state], H=[hs]) if record else None
    # below ~-709 a gate's exp(-x) overflows and its sigmoid is exactly 0
    with np.errstate(over="ignore"):
        for t in range(params.chunk_count):
            x = F[:, t * cs:(t + 1) * cs]
            pre = {g: x @ p[f"W_{g}"].T + hs @ p[f"U_{g}"].T + p[f"b_{g}"]
                   for g in GATES}
            i = _sigmoid(pre["i"])
            f = _sigmoid(pre["f"])
            o = _sigmoid(pre["o"])
            g = np.tanh(pre["g"])
            cs_state = f * cs_state + i * g
            hs = o * np.tanh(cs_state)
            if tape is not None:
                tape.X.append(x)
                tape.gates.append({"i": i, "f": f, "o": o, "g": g})
                tape.C.append(cs_state)
                tape.H.append(hs)
    s = hs @ params.W_out.T + params.b_out
    return s, tape


def condition_backward(params: ConditionNetParams, tape: NetTape,
                       d_s: np.ndarray):
    """Exact reverse-mode gradients of s w.r.t. every parameter, keyed like
    tensors(). The query features are frozen, so no gradient flows to them.
    The tape is consumed; reuse raises ContractError, as does a missing
    tape (a forward pass run with record=False).
    """
    if tape is None:
        raise ContractError("no NetTape: the forward pass ran with "
                            "record=False")
    if tape.consumed:
        raise ContractError("NetTape already consumed by a backward pass")
    tape.consumed = True

    dS = np.asarray(d_s, dtype=np.float64)
    B = dS.shape[0]
    T = params.chunk_count
    h = params.hidden_size

    grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
    grads["W_out"] = dS.T @ tape.H[T]
    grads["b_out"] = dS.sum(axis=0)
    dh = dS @ params.W_out
    dc = np.zeros((B, h))
    for t in range(T - 1, -1, -1):
        g = tape.gates[t]
        c_t = tape.C[t + 1]
        c_prev = tape.C[t]
        h_prev = tape.H[t]
        tanh_c = np.tanh(c_t)
        do = dh * tanh_c
        dc = dc + dh * g["o"] * (1.0 - tanh_c ** 2)
        di = dc * g["g"]
        dg = dc * g["i"]
        df = dc * c_prev
        dc = dc * g["f"]
        dz = {
            "i": di * g["i"] * (1.0 - g["i"]),
            "f": df * g["f"] * (1.0 - g["f"]),
            "o": do * g["o"] * (1.0 - g["o"]),
            "g": dg * (1.0 - g["g"] ** 2),
        }
        dh = np.zeros((B, h))
        for name in GATES:
            grads[f"W_{name}"] += dz[name].T @ tape.X[t]
            grads[f"U_{name}"] += dz[name].T @ h_prev
            grads[f"b_{name}"] += dz[name].sum(axis=0)
            dh += dz[name] @ params.gates[f"U_{name}"]
    return grads
