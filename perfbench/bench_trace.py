"""Outside-in span tracer for the phaseflow benchmark.

The tracer wraps public functions and methods of the package from the
benchmark's own files; the package itself is not modified. Each wrapper is
installed on the name its caller actually looks up:

* `train` imports `run_inference` and `save_model` by name, so the spans for
  refresh, validation and epoch checkpoints come from `train.run_inference`
  and `train.save_model`, not from the `model` module;
* `model` calls `nn.lstm_step`/`nn.head_forward` through the `nn` module and
  `softmax` through its own namespace;
* methods (`InferenceSession.step`, the aggregators' `update`/`feature`,
  `WindowRecorder.step`, `Adam.step`) are patched on their class.

A span has a name, start, end, parent span and trace id; the trace id is the
workload plus the video or Adam step the work belongs to. Spans stay in memory
(per thread, since `infer_dataset` runs videos on a thread pool) and are
written once when the run ends. Self time is a span's duration minus the time
covered by its children in the same thread.
"""

from __future__ import annotations

import contextlib
import threading
from array import array
from time import perf_counter_ns

import numpy as np

from phaseflow import cli, data, eval as eval_mod, model, nn, ssm, train


class _ThreadSpans:
    """Spans and per-name aggregates recorded by one thread."""

    def __init__(self, n_names: int, trace: int):
        self.main = threading.current_thread() is threading.main_thread()
        self.counters: dict[str, float] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[list[int]] = []   # [span index, child ns]
        self.cur_trace = trace
        self.calls = [0] * n_names
        self.incl_ns = [0] * n_names
        self.self_ns = [0] * n_names


class Tracer:
    """Records spans around wrapped package callables; see the module doc."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.traces: list[str] = []
        self._trace_ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._paused = 0
        self.values: dict[str, list[float]] = {}
        self._root_trace = self._trace_id("setup")

    # -- bookkeeping -------------------------------------------------------

    def _trace_id(self, label: str) -> int:
        key = f"{self.workload}/{label}"
        tid = self._trace_ids.get(key)
        if tid is None:
            with self._lock:
                tid = self._trace_ids.setdefault(key, len(self.traces))
                if tid == len(self.traces):
                    self.traces.append(key)
        return tid

    def _state(self) -> _ThreadSpans:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadSpans(len(self.names), self._root_trace)
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def set_trace(self, label: str) -> None:
        """Set the trace id of the calling thread's subsequent spans."""
        self._state().cur_trace = self._trace_id(label)

    def add(self, key: str, amount: float) -> None:
        c = self._state().counters
        c[key] = c.get(key, 0.0) + amount

    def observe(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(float(value))

    @contextlib.contextmanager
    def paused(self):
        """Run a block untraced (benchmark checks, work outside a workload's
        measured path)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, span: str, *, trace_of=None,
             pre=None, post=None) -> None:
        """Replace `owner.attr` by a span-recording wrapper.

        trace_of(args) -> label sets the trace id for the call's duration;
        pre(args) runs before the call and its value goes to
        post(tracer, args, result, pre_value), which runs after it.
        """
        if span in self._name_ids:
            raise ValueError(f"span {span} wrapped twice")
        orig = getattr(owner, attr)
        nid = len(self.names)
        self._name_ids[span] = nid
        self.names.append(span)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return orig(*args, **kwargs)
            st = tracer._state()
            before = pre(args) if pre is not None else None
            saved_trace = st.cur_trace
            if trace_of is not None:
                st.cur_trace = tracer._trace_id(trace_of(args))
            idx = len(st.start)
            st.name.append(nid)
            st.parent.append(st.stack[-1][0] if st.stack else -1)
            st.trace.append(st.cur_trace)
            st.end.append(0)
            frame = [idx, 0]
            st.stack.append(frame)
            st.start.append(perf_counter_ns())
            try:
                result = orig(*args, **kwargs)
            finally:
                t = perf_counter_ns()
                st.end[idx] = t
                st.stack.pop()
                dur = t - st.start[idx]
                st.calls[nid] += 1
                st.incl_ns[nid] += dur
                st.self_ns[nid] += dur - frame[1]
                if st.stack:
                    st.stack[-1][1] += dur
                if trace_of is not None:
                    st.cur_trace = saved_trace
            if post is not None:
                post(tracer, args, result, before)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def _threads_of(self, main_only: bool) -> list[_ThreadSpans]:
        return [st for st in self._threads if st.main or not main_only]

    def counter(self, key: str, main_only: bool = False) -> float:
        return sum(st.counters.get(key, 0.0) for st in self._threads_of(main_only))

    def totals(self, main_only: bool = False) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns and self ns, over all threads or
        over the main thread only."""
        out = {}
        for nid, name in enumerate(self.names):
            calls = incl = self_ns = 0
            for st in self._threads_of(main_only):
                calls += st.calls[nid]
                incl += st.incl_ns[nid]
                self_ns += st.self_ns[nid]
            out[name] = {"calls": calls, "incl_ns": incl, "self_ns": self_ns}
        return out

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; `parent` indexes into the same arrays
        (-1 for a thread's root spans)."""
        cols = {k: [] for k in ("name", "parent", "trace", "start", "end", "thread")}
        offset = 0
        for tno, st in enumerate(self._threads):
            parent = np.frombuffer(st.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.frombuffer(st.name, dtype=np.int32))
            cols["trace"].append(np.frombuffer(st.trace, dtype=np.int32))
            cols["start"].append(np.frombuffer(st.start, dtype=np.int64))
            cols["end"].append(np.frombuffer(st.end, dtype=np.int64))
            cols["thread"].append(np.full(len(st.name), tno, dtype=np.int32))
            offset += len(st.name)
        return {k: (np.concatenate(v) if v else np.zeros(0, np.int64))
                for k, v in cols.items()}

    def children_total_ns(self, parent_span: str, child_spans) -> tuple[int, int]:
        """Total duration and count of spans named in `child_spans` whose
        direct parent is a `parent_span` span."""
        sp = self.spans()
        if sp["name"].size == 0 or parent_span not in self._name_ids:
            return 0, 0
        pid = self._name_ids[parent_span]
        kids = np.array([self._name_ids[c] for c in child_spans if c in self._name_ids])
        has_parent = sp["parent"] >= 0
        parent_name = np.full(sp["name"].shape, -1)
        parent_name[has_parent] = sp["name"][sp["parent"][has_parent]]
        mask = np.isin(sp["name"], kids) & (parent_name == pid)
        return int((sp["end"][mask] - sp["start"][mask]).sum()), int(mask.sum())

    def save(self, path: str) -> None:
        sp = self.spans()
        np.savez_compressed(path, names=np.array(self.names),
                            traces=np.array(self.traces), **sp)


# ---------------------------------------------------------------------------
# What is wrapped, where

def _frames(key, count_of):
    def post(tracer, args, result, _before):
        tracer.add(key, count_of(args, result))
    return post


def _on_clip(tracer, args, result, _before):
    tracer.observe("grad_norm_preclip", result)
    tracer.add("clipped", float(result > args[1]))


def _on_batches(tracer, args, result, _before):
    tracer.add("batches", len(result))
    tracer.add("batch_windows", sum(len(b) for b in result))
    tracer.add("batch_slots", len(result) * args[1])


def _on_hmm_update(tracer, args, _result, before):
    # reset() zeroes the counter, so count increments across each update
    tracer.add("hmm_underflows", args[0].underflow_count - before)


def _on_adam_step(tracer, args, _result, _before):
    tracer.set_trace(f"adam{args[0].t + 1}")


def _video_of(args):
    return args[1].video_id


def install(tracer: Tracer) -> Tracer:
    """Install every wrapper the per-layer metrics need."""
    w = tracer.wrap
    # data
    w(data, "generate_dataset", "data.generate_dataset")
    w(data, "write_dataset", "data.write_dataset")
    w(data, "read_dataset", "data.read_dataset")
    # ssm: per-frame aggregators, patched on their classes
    for cls, short in ((ssm.CslAccumulator, "csl"), (ssm.GaborAccumulator, "gabor"),
                       (ssm.HmmFilterState, "hmm")):
        w(cls, "update", f"ssm.{short}.update",
          pre=(lambda a: a[0].underflow_count) if short == "hmm" else None,
          post=_on_hmm_update if short == "hmm" else None)
        w(cls, "feature", f"ssm.{short}.feature")
    w(ssm.SsmExtractor, "feature", "ssm.extractor.feature")
    w(ssm, "acausal_feature_stream", "ssm.acausal_feature_stream",
      post=_frames("acausal_stream_frames", lambda a, r: len(a[1])))
    w(ssm, "estimate_transition_matrix", "ssm.estimate_transition_matrix")
    # nn
    w(nn, "lstm_step", "nn.lstm_step")
    w(nn, "head_forward", "nn.head_forward")
    w(model, "softmax", "model.softmax")
    w(nn.WindowRecorder, "step", "nn.recorder.step")
    w(nn, "window_loss_and_dlogits", "nn.window_loss",
      post=_frames("window_loss_frames", lambda a, r: len(a[0])))
    w(nn, "window_backward", "nn.window_backward",
      post=_frames("window_backward_frames", lambda a, r: a[1].n_frames))
    w(nn, "clip_global_norm", "nn.clip_global_norm", post=_on_clip)
    w(nn.Adam, "step", "nn.adam.step", post=_on_adam_step)
    w(nn, "save_checkpoint", "nn.save_checkpoint")
    w(nn, "load_checkpoint", "nn.load_checkpoint")
    # model
    w(model.InferenceSession, "step", "model.session.step")
    w(model, "run_inference", "model.run_inference", trace_of=_video_of)
    w(model, "infer_dataset", "model.infer_dataset")
    w(model, "worker_thread_count", "model.worker_thread_count",
      post=lambda tr, a, r, b: tr.observe("infer_workers", r))
    w(model, "hmm_smooth_posthoc", "model.hmm_smooth_posthoc",
      post=_frames("hmm_smooth_frames", lambda a, r: len(a[0])))
    w(model, "save_model", "model.save_model")
    w(model, "load_model", "model.load_model")
    # train
    w(train, "fit", "train.fit", trace_of=lambda a: "fit")
    w(train, "train_epoch", "train.train_epoch",
      trace_of=lambda a: f"adam{a[0].adam.t + 1}")
    w(train, "batch_scheduler", "train.batch_scheduler", post=_on_batches)
    w(train, "dataset_frame_accuracy", "train.dataset_frame_accuracy")
    w(train, "run_inference", "train.run_inference", trace_of=_video_of)
    w(train, "save_model", "train.save_model")
    w(train, "training_forward_probs", "train.training_forward_probs",
      trace_of=_video_of)
    # eval / cli
    w(eval_mod, "compute_report", "eval.compute_report",
      post=_frames("report_frames", lambda a, r: len(a[0])))
    w(eval_mod, "aggregate_reports", "eval.aggregate_reports")
    w(eval_mod, "render_report", "eval.render_report")
    w(cli, "write_prediction_csv", "cli.write_prediction_csv",
      post=_frames("csv_write_frames", lambda a, r: a[1].probs.shape[0]))
    w(cli, "read_prediction_csv", "cli.read_prediction_csv",
      post=_frames("csv_read_frames", lambda a, r: len(r[0])))
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics

# metric -> (unit, span, "incl"|"self", ns per unit, frames counter or None)
TIMED = {
    "data.generate_s": ("s", "data.generate_dataset", "incl", 1e9, None),
    "data.write_s": ("s", "data.write_dataset", "incl", 1e9, None),
    "data.read_s": ("s", "data.read_dataset", "incl", 1e9, None),
    "ssm.csl.update_us": ("us", "ssm.csl.update", "self", 1e3, None),
    "ssm.csl.feature_us": ("us", "ssm.csl.feature", "self", 1e3, None),
    "ssm.gabor.update_us": ("us", "ssm.gabor.update", "self", 1e3, None),
    "ssm.gabor.feature_us": ("us", "ssm.gabor.feature", "self", 1e3, None),
    "ssm.hmm.update_us": ("us", "ssm.hmm.update", "self", 1e3, None),
    "ssm.hmm.feature_us": ("us", "ssm.hmm.feature", "self", 1e3, None),
    "ssm.extractor.feature_us": ("us", "ssm.extractor.feature", "self", 1e3, None),
    "ssm.acausal_stream_us_per_frame": ("us/frame", "ssm.acausal_feature_stream",
                                        "incl", 1e3, "acausal_stream_frames"),
    "ssm.transition_estimate_ms": ("ms", "ssm.estimate_transition_matrix",
                                   "incl", 1e6, None),
    "nn.lstm_step_us": ("us", "nn.lstm_step", "self", 1e3, None),
    "nn.recorder_step_us": ("us", "nn.recorder.step", "self", 1e3, None),
    "nn.window_loss_us_per_frame": ("us/frame", "nn.window_loss", "incl", 1e3,
                                    "window_loss_frames"),
    "nn.window_backward_us_per_frame": ("us/frame", "nn.window_backward", "incl",
                                        1e3, "window_backward_frames"),
    "nn.clip_us": ("us", "nn.clip_global_norm", "incl", 1e3, None),
    "nn.adam_step_us": ("us", "nn.adam.step", "incl", 1e3, None),
    "nn.ckpt_save_ms": ("ms", "nn.save_checkpoint", "incl", 1e6, None),
    "nn.ckpt_load_ms": ("ms", "nn.load_checkpoint", "incl", 1e6, None),
    "model.step_us": ("us", "model.session.step", "self", 1e3, None),
    "model.infer_dataset_s": ("s", "model.infer_dataset", "incl", 1e9, None),
    "model.hmm_smooth_us_per_frame": ("us/frame", "model.hmm_smooth_posthoc",
                                      "incl", 1e3, "hmm_smooth_frames"),
    "train.train_epoch_s": ("s", "train.train_epoch", "incl", 1e9, None),
    "train.validate_s": ("s", "train.dataset_frame_accuracy", "incl", 1e9, None),
    "train.checkpoint_s": ("s", "train.save_model", "incl", 1e9, None),
    "eval.compute_report_us_per_frame": ("us/frame", "eval.compute_report", "incl",
                                         1e3, "report_frames"),
    "eval.aggregate_ms": ("ms", "eval.aggregate_reports", "incl", 1e6, None),
    "eval.render_report_s": ("s", "eval.render_report", "incl", 1e9, None),
    "cli.write_csv_us_per_frame": ("us/frame", "cli.write_prediction_csv", "incl",
                                   1e3, "csv_write_frames"),
    "cli.read_csv_us_per_frame": ("us/frame", "cli.read_prediction_csv", "incl",
                                  1e3, "csv_read_frames"),
}


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer values as {name: (value, unit)}; every time metric also
    gets a `<name>.calls` count. Layers a workload never enters read 0.

    Per-call times come from the main thread, which runs the stream loop,
    training, refresh and validation. In `infer_dataset`'s worker threads a
    span also holds the wait for the interpreter lock (a numpy call that
    drops it can wait a whole switch interval to get it back), so only
    `model.infer_video_ms` counts them: that wait is part of what a video
    costs under the thread pool."""
    tot = tracer.totals(main_only=True)
    every = tracer.totals()

    def cnt(key):
        return tracer.counter(key, main_only=True)

    out: dict[str, tuple[float, str]] = {}

    def timed(name, unit, ns, per, calls):
        out[name] = (_ratio(ns, per), unit)
        out[f"{name}.calls"] = (float(calls), "count")

    for name, (unit, span, kind, scale, frames) in TIMED.items():
        t = tot[span]
        ns = t["incl_ns" if kind == "incl" else "self_ns"] / scale
        per = cnt(frames) if frames else t["calls"]
        timed(name, unit, ns, per, t["calls"])

    head, soft = tot["nn.head_forward"], tot["model.softmax"]
    timed("nn.head_softmax_us", "us",
          (head["incl_ns"] + soft["incl_ns"]) / 1e3, head["calls"], head["calls"])
    runs = [every["model.run_inference"], every["train.run_inference"]]
    timed("model.infer_video_ms", "ms", sum(r["incl_ns"] for r in runs) / 1e6,
          sum(r["calls"] for r in runs), sum(r["calls"] for r in runs))
    epochs = tot["train.train_epoch"]["calls"]
    timed("train.epoch_s", "s", tot["train.fit"]["incl_ns"] / 1e9, epochs, epochs)
    # refresh: train.run_inference spans not parented by validation, plus the
    # acausal statistic streams fit derives from them; both sit directly
    # under the train.fit span
    refresh_ns, refresh_calls = tracer.children_total_ns(
        "train.fit", ("train.run_inference", "ssm.acausal_feature_stream"))
    timed("train.refresh_s", "s", refresh_ns / 1e9, epochs, refresh_calls)

    norms = tracer.values.get("grad_norm_preclip", [])
    out["nn.grad_norm_preclip_p50"] = (float(np.median(norms)) if norms else 0.0, "norm")
    out["nn.grad_norm_preclip_max"] = (float(max(norms)) if norms else 0.0, "norm")
    out["nn.clipped_frac"] = (_ratio(cnt("clipped"), len(norms)), "ratio")
    out["ssm.hmm.underflows"] = (tracer.counter("hmm_underflows"), "count")
    workers = tracer.values.get("infer_workers", [])
    out["model.infer_workers"] = (float(workers[-1]) if workers else 0.0, "count")
    out["train.batches"] = (_ratio(cnt("batches"), epochs), "count")
    out["train.batch_fill"] = (_ratio(cnt("batch_windows"), cnt("batch_slots")), "ratio")
    return out
