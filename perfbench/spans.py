"""Outside-in span tracer for the sgdmlab layers.

The tracer replaces public functions and methods with wrappers at the names
the program calls them through (a module attribute or a class attribute), so
nothing inside ``src/`` changes. Every call records one span: name, start,
end and the index of the enclosing span. Spans stay in flat in-memory arrays
and are summarised (and optionally written out) when the sweep ends.

A layer is the first component of a span name: rand, problems, optimizer,
spectrum, inference, harness.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

LAYERS = ("rand", "problems", "optimizer", "spectrum", "inference", "harness")

# Per-call kernel counts, computed from array shapes (not measured):
# doubles gathered and floating-point operations of one minibatch_gradient.
# quadratic: a_mats[idx] (B d^2) and b_vecs[idx] (B d); two batch means,
#   one d x d matvec and a subtraction.
# logistic: features[idx] (B d) and labels[idx] (B); two B x d products,
#   the sigmoid (exp, add, divide), the residual and the scaled sum.
def gradient_doubles(family: str, batch: int, dim: int) -> int:
    if family == "quadratic":
        return batch * dim * dim + batch * dim
    return batch * dim + batch


def gradient_flops(family: str, batch: int, dim: int) -> int:
    if family == "quadratic":
        return batch * dim * dim + batch * dim + 2 * dim * dim + dim
    return 4 * batch * dim + 4 * batch + 3 * dim


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.gradient_bytes = 0
        self.gradient_flops = 0
        self.steps = 0
        self.records = 0
        self.diverged = 0
        self.state_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None, on_raise=None):
        nid = self._id(name)
        stack, ids, parents = self._stack, self.name_id, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                if on_raise is not None:
                    on_raise(args, kwargs, exc)
                raise
            ends[i] = clock()
            stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, **hooks)))
        else:
            setattr(owner, attr, self.wrap(name, raw, **hooks))

    def install(self) -> None:
        """Wrap the layers' public callables where the program looks them up."""
        import sgdmlab
        from sgdmlab import harness, optimizer, problems, rand, spectrum

        def count_kernel(args, kwargs, out):
            # the method's args are (self, x, indices)
            prob, indices = args[0], args[2] if len(args) > 2 else kwargs["indices"]
            batch = len(indices)
            self.gradient_bytes += 8 * gradient_doubles(prob.family, batch, prob.dim)
            self.gradient_flops += gradient_flops(prob.family, batch, prob.dim)

        def run_done(args, kwargs, out):
            iters = args[2] if len(args) > 2 else kwargs["iters"]
            self.steps += int(iters)
            self.records += len(out[2].steps)

        def run_failed(args, kwargs, exc):
            if isinstance(exc, optimizer.DivergedError):
                self.steps += int(exc.step)
                self.diverged += 1

        def generated(args, kwargs, out):
            arr = out.a_mats if out.family == "quadratic" else out.features
            self.state_bytes = max(self.state_bytes, int(arr.nbytes))

        stream = rand.RngStream
        self._patch(stream, "__init__", "rand.stream_init")
        for meth in ("batch_indices", "normal_vector", "standard_normal",
                     "uniform", "bernoulli", "child"):
            self._patch(stream, meth, f"rand.{meth}")

        for cls in (problems.QuadraticProblem, problems.LogisticProblem):
            self._patch(cls, "minibatch_gradient", "problems.minibatch_gradient",
                        on_return=count_kernel)
            for meth in ("tuning_spectrum", "hessian_spectrum", "hessian_at",
                         "full_gradient", "loss"):
                self._patch(cls, meth, f"problems.{meth}")
        self._patch(optimizer.AveragingState, "fold", "optimizer.fold")
        self._patch(spectrum.HessianSpectrum, "from_extremes", "spectrum.from_extremes")
        self._patch(spectrum.HessianSpectrum, "from_matrix", "spectrum.from_matrix")

        by_name = {
            "generate_quadratic": ("problems.generate", {"on_return": generated}),
            "generate_logistic": ("problems.generate", {"on_return": generated}),
            "run": ("optimizer.run", {"on_return": run_done, "on_raise": run_failed}),
            "resolve_gamma": ("optimizer.resolve_gamma", {}),
            "choose_burn_in": ("optimizer.choose_burn_in", {}),
            "adaptive_gamma": ("spectrum.adaptive_gamma", {}),
            "spectral_radius_closed_form": ("spectrum.closed_form", {}),
            "verify_power_bound": ("spectrum.power_bound", {}),
            "build_gamma_matrix": ("spectrum.build_gamma_matrix", {}),
            "optimal_hyperparameters": ("spectrum.optimal_hyperparameters", {}),
            "plug_in_covariance": ("inference.plug_in_covariance", {}),
            "z_statistic": ("inference.z_statistic", {}),
            "confidence_interval": ("inference.confidence_interval", {}),
            "confidence_region_statistic": ("inference.confidence_region_statistic", {}),
            "chi_square_quantile": ("inference.chi_square_quantile", {}),
            "ks_normality": ("inference.ks_normality", {}),
            "main": ("harness.main", {}),
        }
        # the package namespace (the benchmark's own calls), the harness
        # namespace (its from-imports) and optimizer's (run -> resolve_gamma
        # -> adaptive_gamma)
        for module in (sgdmlab, harness, optimizer):
            for attr, (name, hooks) in by_name.items():
                if attr in vars(module) and callable(getattr(module, attr)):
                    self._patch(module, attr, name, **hooks)

    # -- summary ------------------------------------------------------------

    def arrays(self):
        return tuple(np.array(a, dtype=np.int64)
                     for a in (self.name_id, self.parent, self.start, self.end))

    def summary(self, wall_s: float, replications: int) -> dict:
        """Per-layer metrics of one traced sweep of `wall_s` seconds.

        A span's self time is its duration minus the durations of the spans
        directly inside it. The time no top-level span covers is the
        unwrapped remainder, so layer self times plus the remainder must add
        up to `wall_s`; `trace.accounting_ok` records that check.
        """
        nid, parent, start, end = self.arrays()
        dur_ns = end - start
        nested = parent >= 0
        self_ns = dur_ns.copy()
        np.subtract.at(self_ns, parent[nested], dur_ns[nested])
        dur, self_s = dur_ns * 1e-9, self_ns * 1e-9
        span_name = np.array(self.names + [""], dtype=object)[nid]
        span_layer = np.array([n.split(".", 1)[0] for n in self.names] + [""], dtype=object)[nid]
        out: dict = {}

        def timed(name, pct=False):
            mask = span_name == name
            calls, total = int(mask.sum()), float(self_s[mask].sum())
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = total
            if pct:
                d = dur[mask] * 1e6
                out[f"{name}.us_p50"] = float(np.percentile(d, 50)) if calls else 0.0
                out[f"{name}.us_p99"] = float(np.percentile(d, 99)) if calls else 0.0
            return calls, total

        timed("rand.batch_indices", pct=True)
        timed("problems.minibatch_gradient", pct=True)
        out["problems.minibatch_gradient.bytes_computed"] = self.gradient_bytes
        out["problems.minibatch_gradient.flops_computed"] = self.gradient_flops
        generated, _ = timed("problems.generate")
        out["problems.generate.per_rep"] = generated / replications
        out["problems.state_bytes"] = self.state_bytes
        _, run_self = timed("optimizer.run")
        out["optimizer.run.us_per_step_self"] = run_self / self.steps * 1e6 if self.steps else 0.0
        timed("optimizer.fold")
        out["optimizer.steps"] = self.steps
        out["optimizer.records"] = self.records
        out["optimizer.diverged"] = self.diverged
        timed("spectrum.closed_form")
        timed("spectrum.power_bound")

        layer_self = {layer: float(self_s[span_layer == layer].sum()) for layer in LAYERS}
        out["inference.calls"] = int((span_layer == "inference").sum())
        out["inference.self_s"] = layer_self["inference"]
        out["harness.self_s"] = layer_self["harness"]
        for layer in LAYERS:
            out[f"{layer}.share"] = layer_self[layer] / wall_s
        top_ns = int(dur_ns[~nested].sum())
        unwrapped = wall_s - top_ns * 1e-9
        out["trace.unwrapped_s"] = unwrapped
        out["trace.spans"] = int(nid.size)
        out["trace.accounting_ok"] = bool(
            int(self_ns.sum()) == top_ns
            and np.all(self_ns >= 0)
            and unwrapped >= 0.0
            and abs(sum(layer_self.values()) + unwrapped - wall_s) <= 1e-6 * wall_s
        )
        return out

    def write(self, path: str) -> None:
        """Write every span (name table, parent index, start/end in ns)."""
        nid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start_ns=start, end_ns=end)
