"""Base class for all neural-network modules."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.parameter import Parameter


class Module:
    """Base class providing parameter/submodule registration and mode flags.

    Subclasses implement ``forward`` (and ``backward`` when they participate in
    training).  Assigning a :class:`Parameter` or :class:`Module` to an
    attribute registers it automatically, mirroring the ergonomics of the
    framework the paper used.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            if not value.name:
                value.name = name
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        """Explicitly register a parameter under ``name``."""
        setattr(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        setattr(self, name, module)

    # -- traversal ----------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        return iter(self._modules.items())

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size for p in self.parameters() if (p.trainable or not trainable_only)
        )

    # -- modes / grads ------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name → array copy of all parameters and buffers."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for mod_name, module in self.named_modules():
            for buf_name, buf in getattr(module, "_buffers", {}).items():
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                state[key] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters and buffers from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        consumed = set()
        for name, param in params.items():
            if name not in state:
                raise KeyError(f"missing parameter '{name}' in state dict")
            param.copy_(state[name])
            consumed.add(name)
        for mod_name, module in self.named_modules():
            buffers = getattr(module, "_buffers", None)
            if not buffers:
                continue
            for buf_name in list(buffers):
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                if key not in state:
                    raise KeyError(f"missing buffer '{key}' in state dict")
                buffers[buf_name] = np.array(state[key], copy=True)
                consumed.add(key)
        unexpected = set(state) - consumed
        if unexpected:
            raise KeyError(f"unexpected keys in state dict: {sorted(unexpected)}")

    # -- buffers ------------------------------------------------------------
    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array saved in the state dict (e.g. BN stats)."""
        if not hasattr(self, "_buffers"):
            object.__setattr__(self, "_buffers", OrderedDict())
        self._buffers[name] = np.asarray(value, dtype=np.float64)

    def get_buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in getattr(self, "_buffers", {}):
            raise KeyError(f"no buffer named '{name}'")
        self._buffers[name] = np.asarray(value, dtype=np.float64)

    # -- lowering ------------------------------------------------------------
    def lower_into(self, builder, x: int) -> int:
        """Emit this module's ops into a network graph builder.

        ``builder`` is a :class:`repro.core.graph.GraphBuilder` (duck-typed so
        ``repro.nn`` stays independent of ``repro.core``); ``x`` is the buffer
        id holding this module's input.  Implementations call ``builder.add``
        for primitive ops and ``builder.lower`` for children, and return the
        buffer id of their output.  Modules without a hook cannot take part in
        whole-network compilation.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement lower_into(); "
            "the model cannot be compiled to a network program"
        )

    # -- forward / backward -------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError(
            f"{type(self).__name__} does not implement forward()"
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement backward()"
        )

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        child_names = ", ".join(self._modules)
        return f"{type(self).__name__}({child_names})"
