"""Where the traced run wraps vesselsim, and the per-layer metrics it yields.

Layers are named after the modules.  Every wrapper sits on the object the
caller looks the function up on: ``cli`` and ``commands`` import names with
``from ... import``, so ``vesselsim.commands.estimate_expectation`` is
wrapped rather than ``vesselsim.bell.estimate_expectation``.

Per-sample functions of the locality scan (``contextual_table``,
``run_coincidence``, ``search_factorization``, ``contextuality_witness``) run
~10^5 times per op and are aggregated into a count plus summed time;
``SignAssignment.reproduces`` is only counted.  Everything else is a span.

Time metrics are sums over one pass of the op list; ``*_self_s`` and the
aggregated times are self times (a span minus its children), the others
are inclusive.
"""

from __future__ import annotations

from collections import defaultdict

# Counts that must repeat exactly between runs of the same code on the same
# inputs; a difference is flagged as a failure, never read as a speed-up.
SENTINELS = (
    "bell.draw_samples",
    "streams.chunks",
    "commands.rows",
    "cli.bytes_out",
    "locality.search_calls",
    "locality.candidates_tried",
)

COMMANDS = ("vessel_chsh", "quantum_chsh", "locality_check", "sample_state")


def _rows(args, kwargs, result) -> int:
    return len(result[1].rows)


def _first_len(args, kwargs, result) -> int:
    return len(result[0])


def _len(args, kwargs, result) -> int:
    return len(result)


def targets() -> list[tuple]:
    """Wrapper targets for ``Tracer.install``; imports vesselsim."""
    from vesselsim import bell, cli, commands, locality, quantum

    sampler = bell.HiddenVariableSampler
    return [
        (cli, "main", "span", "cli.main", None),
        (cli, "parse_scenario", "span", "scenario.parse", None),
        (cli, "render_json", "span", "cli.render_json", None),
        (cli, "render_csv", "span", "cli.render_csv", None),
        *[(commands, name, "span", f"commands.{name}", _rows) for name in COMMANDS],
        (commands, "estimate_expectation", "span", "bell.estimate", None),
        (commands, "singlet_estimate", "span", "quantum.estimate", None),
        (commands, "born_samples", "span", "quantum.born", _len),
        (commands, "schmidt_rank", "span", "quantum.schmidt", None),
        # is_entangled reaches schmidt_rank through quantum's own namespace.
        (quantum, "schmidt_rank", "span", "quantum.schmidt", None),
        (commands, "scan_hidden_variables", "span", "locality.scan", None),
        (bell, "run_chunks", "chunks", "streams.run_chunks", "bell.chunk"),
        (quantum, "run_chunks", "chunks", "streams.run_chunks", "quantum.chunk"),
        (bell, "pair_products", "span", "bell.outcome", None),
        (quantum, "singlet_samples", "span", "quantum.singlet_samples", _first_len),
        (sampler, "draw_arrays", "span", "bell.draw_arrays", _first_len),
        (sampler, "draw", "span", "bell.draw_objects", None),
        (locality, "contextual_table", "aggregate", "locality.table", None),
        (locality, "run_coincidence", "aggregate", "vessels.coincidence", None),
        (locality, "search_factorization", "aggregate", "locality.search", None),
        (locality, "contextuality_witness", "aggregate", "locality.witness", None),
        (locality.SignAssignment, "reproduces", "count", "locality.candidates", None),
    ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= max(start, end):
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def pass_metrics(drained: dict, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (no ``setup.*`` or overhead)."""
    spans = drained["spans"]
    aggregates = drained["aggregates"]
    counts = drained["counts"]
    by_id = {span[0]: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)

    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    values = defaultdict(int)
    busy = 0.0
    capacity = 0.0
    for sid, parent, name, t0, t1, agg_child, value in spans:
        kids = children.get(sid, ())
        covered = _covered([(max(k[3], t0), min(k[4], t1)) for k in kids])
        calls[name] += 1
        inclusive[name] += t1 - t0
        self_time[name] += t1 - t0 - covered - agg_child
        values[name] += value
        if name == "streams.run_chunks":
            workers = max(1, min(value, len(kids))) if value > 1 else 1
            busy += sum(k[4] - k[3] for k in kids)
            capacity += workers * (t1 - t0)

    def aggregate(name: str, field: int) -> float:
        return aggregates.get(name, [0, 0.0, 0.0])[field]

    def entry_time(layers: set[str]) -> float:
        """Wall time spent inside any of ``layers``, counted at the spans
        through which the op enters them."""
        total = 0.0
        for sid, parent, name, t0, t1, *_ in spans:
            if _module(name) in layers and (
                parent not in by_id or _module(by_id[parent][2]) not in layers
            ):
                total += t1 - t0
        return total

    op_s = inclusive["cli.main"]
    commands_self = sum(self_time[f"commands.{name}"] for name in COMMANDS)
    search_calls = aggregate("locality.search", 0)
    candidates = counts.get("locality.candidates", 0)
    share = (lambda seconds: seconds / op_s) if op_s > 0 else (lambda seconds: 0.0)
    return {
        "scenario.parse_s": inclusive["scenario.parse"],
        "scenario.parse_calls": calls["scenario.parse"],
        "bell.draw_s": inclusive["bell.draw_arrays"],
        "bell.draw_calls": calls["bell.draw_arrays"],
        "bell.draw_samples": values["bell.draw_arrays"],
        "bell.draw_objects_s": self_time["bell.draw_objects"],
        "bell.outcome_s": inclusive["bell.outcome"],
        "bell.estimate_self_s": self_time["bell.estimate"] + self_time["bell.chunk"],
        "streams.chunks": calls["bell.chunk"] + calls["quantum.chunk"],
        "streams.run_chunks_s": inclusive["streams.run_chunks"],
        "streams.parallel_efficiency": busy / capacity if capacity > 0 else 0.0,
        "quantum.singlet_s": inclusive["quantum.singlet_samples"],
        "quantum.singlet_samples": values["quantum.singlet_samples"],
        "quantum.born_s": inclusive["quantum.born"],
        "quantum.born_samples": values["quantum.born"],
        "quantum.schmidt_s": inclusive["quantum.schmidt"],
        "quantum.estimate_self_s": self_time["quantum.estimate"]
        + self_time["quantum.chunk"],
        "locality.scan_s": inclusive["locality.scan"],
        "locality.scan_self_s": self_time["locality.scan"],
        "locality.table_s": aggregate("locality.table", 2),
        "locality.table_calls": aggregate("locality.table", 0),
        "locality.search_s": aggregate("locality.search", 2),
        "locality.search_calls": search_calls,
        "locality.candidates_tried": candidates,
        "locality.candidates_per_search": candidates / search_calls if search_calls else 0.0,
        "locality.witness_s": aggregate("locality.witness", 2),
        "vessels.coincidence_calls": aggregate("vessels.coincidence", 0),
        "vessels.coincidence_s": aggregate("vessels.coincidence", 2),
        "commands.self_s": commands_self,
        "commands.rows": sum(values[f"commands.{name}"] for name in COMMANDS),
        "cli.render_json_s": inclusive["cli.render_json"],
        "cli.render_csv_s": inclusive["cli.render_csv"],
        "cli.bytes_out": bytes_out,
        "cli.self_s": self_time["cli.main"],
        "trace.op_s": op_s,
        "share.bell_quantum_streams": share(entry_time({"bell", "quantum", "streams"})),
        "share.locality_vessels": share(entry_time({"locality", "vessels"})),
        "share.commands_render_csv": share(commands_self + inclusive["cli.render_csv"]),
    }
