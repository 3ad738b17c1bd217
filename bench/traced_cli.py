"""Run one vapokit CLI command in-process with timing wrappers on each layer.

    python3 bench/traced_cli.py <src-dir> <spans-prefix> <vapokit argv...>

The wrappers go around the public functions of each layer, on every vapokit
module that binds the function object, so imported copies such as
``vapokit.rewards.fuzzy_find`` are traced too. Each call records a span (name
index, parent span, start, end) in typed arrays; a span stack links each call
to its caller, so self time can be derived later.
Spans stay in memory and are written once the command returns:
``<prefix>.json`` (names, outcome counts, tokenize cache info) and
``<prefix>.bin`` (the span arrays, see ``read_spans``).
"""

from __future__ import annotations

import array
import functools
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, function) pairs traced; the span name is "<module>.<function>".
LAYERS = {
    "textnorm": ("normalize_tokenize",),
    "metrics": ("align", "token_edit_distance", "fuzzy_find", "sample_report", "aggregate_reports"),
    "structured": ("parse_structured",),
    "rewards": ("total_reward",),
    "ocr_behavior": ("partition_vocab", "detect", "detect_all"),
    "grpo": ("train", "render", "policy_step", "reward_matrix"),
    "bench": ("generate_slide_text", "render_slide", "build_dataset"),
    "data": ("read_samples", "read_hypotheses", "pair_by_id"),
    "cli": ("cmd_score", "cmd_reward", "cmd_detect", "cmd_build", "cmd_simulate"),
}

# Imported copies that must end up wrapped; checked after installation.
MUST_WRAP = (
    ("rewards", "fuzzy_find"),
    ("rewards", "token_edit_distance"),
    ("grpo", "total_reward"),
    ("cli", "sample_report"),
    ("cli", "total_reward"),
    ("cli", "read_samples"),
    ("ocr_behavior", "pair_by_id"),
)

# Per-call outcomes counted at the layer boundary: span name -> predicate on the result.
OUTCOMES = {
    "structured.parse_structured": lambda parsed: not parsed.well_formed,
}

SPAN_ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


def span_name(module: str, function: str) -> str:
    return f"cli.{function[4:]}" if module == "cli" else f"{module}.{function}"


class Tracer:
    """In-memory span recorder with a caller stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.arrays = {key: array.array(code) for key, code in SPAN_ARRAYS}
        self.outcomes: dict[str, int] = {}
        self.stack = [-1]

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        names, parents = self.arrays["name"], self.arrays["parent"]
        starts, ends = self.arrays["start"], self.arrays["end"]
        stack = self.stack
        outcome = OUTCOMES.get(name)
        outcomes = self.outcomes
        if outcome is not None:
            outcomes[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if outcome is not None and outcome(result):
                outcomes[name] += 1
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    def install(self) -> None:
        """Wrap every traced function on every vapokit module that binds it."""
        modules = [m for key, m in sys.modules.items() if key == "vapokit" or key.startswith("vapokit.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"vapokit.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self.wrap(span_name(module_name, function), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        for module_name, attr in MUST_WRAP:
            if not getattr(getattr(sys.modules[f"vapokit.{module_name}"], attr), "__wrapped_by_bench__", False):
                raise RuntimeError(f"vapokit.{module_name}.{attr} was not wrapped")

    def write(self, prefix: Path, header: dict) -> None:
        with open(f"{prefix}.bin", "wb") as f:
            for key, _ in SPAN_ARRAYS:
                self.arrays[key].tofile(f)
        header = {**header, "names": self.names, "spans": len(self.arrays["start"]), "outcomes": self.outcomes}
        Path(f"{prefix}.json").write_text(json.dumps(header), encoding="utf-8")


def read_spans(prefix: Path) -> tuple[dict, dict[str, array.array]]:
    """Load what Tracer.write wrote: (header, {"name"|"parent"|"start"|"end": array})."""
    header = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    arrays = {}
    with open(f"{prefix}.bin", "rb") as f:
        for key, code in SPAN_ARRAYS:
            arrays[key] = array.array(code)
            arrays[key].fromfile(f, header["spans"])
    return header, arrays


def main(argv: list[str]) -> int:
    src, prefix, command = argv[0], Path(argv[1]), argv[2:]
    sys.path.insert(0, src)
    import vapokit.cli
    import vapokit.textnorm

    tracer = Tracer()
    tracer.install()
    code = vapokit.cli.main(command)
    info = vapokit.textnorm._tokenize.cache_info()
    tracer.write(prefix, {"tokenize_cache": {"hits": info.hits, "misses": info.misses}})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
