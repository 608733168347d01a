"""perfbench's tracer patches library functions at the module attributes
their callers look up (``perfbench/spans.py``).  ``Tracer.install`` reads
``owner.__dict__[attr]``, so a refactor that drops one of those names
would break a traced benchmark run; the first test catches it in the
suite.  A refactor that leaves a span with no caller empties a per-layer
benchmark metric; the last two tests catch that, for the library and for
the CLI."""

import contextlib
import io
import json

from helpers import load_perfbench

from openset_al import cli, datasets, harness, model, selection


def test_every_patch_site_resolves():
    spans = load_perfbench("spans")
    missing = [
        f"{site.owner}.{site.attr}"
        for site in spans.ALL_SITES
        if site.attr not in spans.resolve_owner(site.owner).__dict__
    ]
    assert spans.ALL_SITES
    assert missing == []


# The library spans a grid never crosses: training calls the losses'
# gradient helpers, not the public losses; the discrepancy weights read the
# training forward's evidence, not ``model.forward``, through the
# uncertainty kernel; and the pool pass computes the evidential closed
# forms through evidential.py's kernels.
NEVER_CROSSED = {
    "model.edl_loss",
    "model.cross_entropy_loss",
    "model.close_loss",
    "model.dis_loss",
    "model.forward",
    "evidential.jsd",
    "evidential.expected_probs",
    "evidential.discrepancy_score",
    "evidential.data_uncertainty",
    "evidential.distribution_uncertainty",
}

# (strategy, train_loss) of each cell of the traced grid
GRID = [
    ("coarse_to_fine", "edl"),
    ("entropy", "edl"),
    ("random", "edl"),
    ("coarse_to_fine", "cross_entropy"),
]


def test_traced_grid_crosses_every_other_span(monkeypatch):
    """A tiny traced grid crosses every library span but NEVER_CROSSED,
    and ``selection.forward`` once per row block of the pool passes."""
    spans = load_perfbench("spans")
    blocks = []
    real_blocks = selection._row_blocks

    def counted_blocks(m, n):
        out = real_blocks(m, n)
        blocks.extend(out)
        return out

    monkeypatch.setattr(selection, "_row_blocks", counted_blocks)
    spec = datasets.BlobSpec(num_known=3, num_unknown=3, dim=6, per_class=40, seed=11)
    tracer = spans.Tracer()
    tracer.install(spans.LIBRARY_SITES)
    try:
        for strategy, train_loss in GRID:
            split = datasets.make_blobs(spec, r=0.5)
            cfg = model.TrainConfig(
                epochs=15, lr_milestones=(10,), discrepancy_epochs=2, query_size=12,
                num_cycles=1, hidden_widths=(16,), train_loss=train_loss,
            )
            harness.run_experiment(split, cfg, strategy)
    finally:
        tracer.restore()
    assert tracer.counts["selection.forward.calls"] == len(blocks) > 0
    crossed = {name for name, *_ in tracer.spans}
    assert {site.span for site in spans.LIBRARY_SITES} - crossed == NEVER_CROSSED


def test_traced_cli_grid_crosses_every_cli_span(tmp_path):
    """``openset-al run`` and ``report`` on a grid of two strategies x two
    seeds, traced at perfbench's CLI sites: each span is crossed, the
    split is built once per (ratio, seed) group and ``run_experiment``
    runs once per cell."""
    spans = load_perfbench("spans")
    config = tmp_path / "config.json"
    outdir = tmp_path / "results"
    config.write_text(
        json.dumps(
            {
                "strategies": ["coarse_to_fine", "random"],
                "openness_ratios": [0.5],
                "seeds": [0, 1],
                "output_dir": str(outdir),
                "query_size": 8,
                "num_cycles": 1,
                "data": {"num_known": 2, "num_unknown": 2, "dim": 4, "per_class": 30,
                         "init_labeled_fraction": 0.1},
                "train": {"epochs": 4, "lr_milestones": [], "discrepancy_epochs": 1,
                          "hidden_widths": [8]},
            }
        )
    )
    tracer = spans.Tracer()
    tracer.install(spans.CLI_SITES)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            # in-process, so that this process's tracer sees every span
            assert cli.main(["run", "--config", str(config), "--jobs", "1"]) == 0
            assert cli.main(["report", "--dir", str(outdir)]) == 0
    finally:
        tracer.restore()
    crossed = {name for name, *_ in tracer.spans}
    assert {site.span for site in spans.CLI_SITES} <= crossed
    assert tracer.counts["datasets.make_blobs.calls"] == 2
    assert tracer.counts["harness.run_experiment.calls"] == 4
