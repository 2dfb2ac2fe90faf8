"""In-memory span recorder for the benchmark.

Spans are recorded from the benchmark's own code, around each call it makes
into the program; nothing inside `artigen` is instrumented. A disabled
recorder keeps only the name of the innermost open stage, so a failure can
still be attributed to the call that raised it.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index of the enclosing span in Recorder.spans
    asset: int


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[tuple[str, int | None]] = []
        self.error_stage: str | None = None

    @contextmanager
    def span(self, name: str, asset: int):
        index = None
        if self.enabled:
            parent = self._open[-1][1] if self._open else None
            index = len(self.spans)
            self.spans.append(Span(name, perf_counter(), None, parent, asset))
        self._open.append((name, index))
        try:
            yield
        except BaseException:
            if self.error_stage is None:
                self.error_stage = name
            raise
        finally:
            self._open.pop()
            if index is not None:
                self.spans[index].end = perf_counter()

    def take_error_stage(self) -> str | None:
        stage, self.error_stage = self.error_stage, None
        return stage

    def per_asset_ms(self, name: str) -> dict[int, float]:
        """Summed duration in ms of the named spans, per asset id."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s.name == name and s.end is not None:
                out[s.asset] = out.get(s.asset, 0.0) + 1000.0 * (s.end - s.start)
        return out

    def mean_ms(self, name: str, assets: int) -> float:
        """Busy time of one layer in ms per asset of the pass (0 when idle)."""
        return sum(self.per_asset_ms(name).values()) / assets if assets else 0.0

    def write_jsonl(self, fh, run_pass: str) -> None:
        for s in self.spans:
            fh.write(
                json.dumps(
                    {
                        "pass": run_pass,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "parent": s.parent,
                        "asset": s.asset,
                    }
                )
                + "\n"
            )
