"""Every byte pin of the test suite: pin name -> (call, sha256 hex digest of its text).

Importing this module runs no pin. It needs only the standard library and pvaudit, so
``PYTHONPATH=src python -S tests/pins.py`` checks the pins without the test extra: it
prints each pin that does not match and exits 1 if there is one, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import sys
import tempfile
import xml.dom.minidom
from pathlib import Path

from pvaudit.cli import main as cli_main
from pvaudit.datasets import load_soy_ldl_studies, soy_ldl_search_space_csv, soy_ldl_studies_csv
from pvaudit.diagnostics import _centred, _two_segment_fit, classify_pvalues
from pvaudit.diagnostics import expectation_plot, pvalue_plot, volcano_plot
from pvaudit.model import Dataset, StudyRecord
from pvaudit.sim import SimConfig, generate_literature, greenwald_censor_rate
from pvaudit.stats import derive_dataset, loo_influence, pool_dl
from pvaudit.svgplot import reference_lines_csv, render_series, series_csv


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


COUNT_HEADER = "ref,author,year,outcomes,causes,covariates\n"
# Valid edge rows: blank identity cells, zero outcomes, 62 covariates, a
# quoted author holding a comma, padded cells, and counts above 2**64.
COUNT_EDGE_ROWS = (
    "1,Bakhit,2003,8,5,3\n"
    ",,,4,1,0\n"
    "3,Zero,2005,0,5,2\n"
    "4,Wide,2006,1,1,62\n"
    '5,"Smith, J.",2007,2,3,1\n'
    " 6 , Pad , 2008 , 7 , 2 , 1 \n"
    "7,Big,2009,1180591620717411303424,36893488147419103235,0\n"
)
# Q sits at k-1 within rounding, and study 0 carries nearly all the weight:
# exact DL gives tau^2 = 8.7e-17, which moves study 0's weight by 8.7e-7.
AT_CLAMP = [(1.0, 1e-5)] + [(1.0, 1.0)] * 9 + [(4.1622776603264935, 1.0)]
# Each input file by name; the last two are what derive and count write of the bundled tables.
_INPUTS = {
    "soy.csv": soy_ldl_studies_csv,
    "counts.csv": soy_ldl_search_space_csv,
    "edge.csv": lambda: COUNT_HEADER + COUNT_EDGE_ROWS,
    "underscore.csv": lambda: COUNT_HEADER + "1,A,2000,1_5,1,0\n",
    "derived.csv": lambda: _outputs("derive", "--input", "soy.csv",
                                    "--output", "derived.csv")[1]["derived.csv"],
    "spaces.csv": lambda: _outputs("count", "--input", "counts.csv",
                                   "--output", "spaces.csv")[1]["spaces.csv"],
}


def _run(*args: str) -> tuple[int, str, str, dict[str, str]]:
    """The exit code, stdout, stderr and each file written, by name, of ``pvaudit *args``
    run in-process in a temporary directory. An argument naming one of ``_INPUTS`` is that
    file, written there first; the name after ``--output`` is a path there too."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv, inputs = [], set()
        for before, arg in zip(("",) + args, args):
            if arg in _INPUTS and before != "--output":
                Path(tmp, arg).write_text(_INPUTS[arg](), encoding="utf-8")
                inputs.add(arg)
            argv.append(str(Path(tmp, arg)) if arg in inputs or before == "--output" else arg)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
        written = {path.name: path.read_text(encoding="utf-8")
                   for path in sorted(Path(tmp).iterdir()) if path.name not in inputs}
    return rc, out.getvalue(), err.getvalue(), written


def _outputs(*args: str) -> tuple[str, dict[str, str]]:
    """The stdout and written files of ``pvaudit *args`` (see ``_run``), which must exit 0
    with an empty stderr, and each SVG of which must parse as XML."""
    rc, out, err, written = _run(*args)
    if rc != 0 or err:
        raise AssertionError(f"pvaudit {' '.join(args)}: exit {rc}, stderr {err!r}")
    for name, text in written.items():
        if name.endswith(".svg"):
            xml.dom.minidom.parseString(text)
    return out, written


def _cli(*args: str) -> str:
    """The stdout of ``pvaudit *args`` (see ``_outputs``), then each file it wrote, by name."""
    out, written = _outputs(*args)
    return out + "".join(f"==> {name} <==\n{text}" for name, text in written.items())


def _refused(code: int, *args: str) -> str:
    """``exit code`` and the stderr of ``pvaudit *args`` (see ``_run``), which must exit
    ``code`` with an empty stdout."""
    rc, out, err, _ = _run(*args)
    if rc != code or out:
        raise AssertionError(f"pvaudit {' '.join(args)}: exit {rc}, stdout {out!r}")
    return f"exit {rc}\n{err}"


_MIXTURE = dict(n_studies=100, effect_fraction=0.2, noncentrality=3.0, censor_rate=0.3)


def _verdicts(seed: int, **changes) -> str:
    """Each replicate's verdict fields and two-segment fit, a line each."""
    cfg = SimConfig(**{**_MIXTURE, "replicates": 200, **changes}, seed=seed)
    lines = []
    for r in range(cfg.replicates):
        ps = generate_literature(cfg, r)
        fields = list(classify_pvalues(ps))
        if len(ps) >= 5:
            fields += _two_segment_fit(_centred(sorted(ps)))
        lines.append(",".join(v.hex() if isinstance(v, float) else repr(v) for v in fields) + "\n")
    return "".join(lines)


def _pvalues(seed: int, replicates: int, **config) -> str:
    """Each replicate's reported p-values, a line each."""
    cfg = SimConfig(**config, replicates=replicates, seed=seed)
    return "".join(",".join(p.hex() for p in generate_literature(cfg, r)) + "\n"
                   for r in range(cfg.replicates))


def _soy():
    return derive_dataset(load_soy_ldl_studies())


def _one():
    return derive_dataset(Dataset((StudyRecord("A", 2000, 1, 1.3, 1.1, 1.6),)))


def _constant():
    return derive_dataset(
        Dataset(tuple(StudyRecord(f"S{i}", 2000, i, 1.3, 1.1, 1.6) for i in range(3)))
    )


def _small_sets(rng: random.Random):
    """300 sets of 3 to 60 studies: every third has one study with nearly all
    the weight, and every fifth is near-homogeneous (tau^2 is often 0 for the
    set and positive for a subset, which sends that study to direct pooling)."""
    for n in range(300):
        k = rng.randint(3, 60)
        ses = [math.exp(rng.uniform(-3.0, 0.5)) for _ in range(k)]
        if n % 3 == 0:
            ses[0] = 10.0 ** -rng.uniform(2.0, 8.0)
        if n % 5 == 0:
            ys = [0.1 + 0.5 * se * rng.gauss(0.0, 1.0) for se in ses]
        else:
            ys = [rng.gauss(0.0, 0.3) for _ in range(k)]
        yield list(zip(ys, ses))


def _large_audit_set(rng: random.Random, rows: int = 1200):
    """Linear-scale (rr - 1, se) pairs of a table in the shape of the
    benchmark's large-audit input: 60% null rows, the rest 2 to 3 se
    protective, se log-uniform on 0.025-0.35, 1% narrow intervals, every
    value rounded to two decimals as published tables print them."""
    effects = []
    while len(effects) < rows:
        u = rng.random()
        if u < 0.01:
            rr = 0.78 + rng.randrange(3) / 100
            low, high = rr - 0.01, rr + 0.01
        else:
            se = 0.025 * 14.0 ** rng.random()
            shift = 0.0 if u < 0.6 else -rng.uniform(2.0, 3.0) * se
            rr = 1.0 + shift + rng.gauss(0.0, se)
            low, high = rr - 1.96 * se, rr + 1.96 * se
        rr, low, high = round(rr, 2), round(low, 2), round(high, 2)
        if 0 < low < high and low <= rr <= high:
            effects.append((rr - 1.0, (high - low) / 3.92))
    return effects


def _loo() -> str:
    """``repr(loo_influence(e))`` of every seeded set, a line each."""
    sets = [*_small_sets(random.Random(29)), _large_audit_set(random.Random(1))]
    return "".join(repr(loo_influence(effects)) + "\n" for effects in sets)


PINS = {
    # stdout of each call on the bundled tables, recorded before DerivedStats and SearchSpaceEntry
    # took their fields in report order; they pin the key order of the audit's ``studies`` rows
    # and ``entries`` too. The derive digest was recorded before derive and count shared one CSV
    # writer.
    "report-audit": (lambda: _cli("audit", "--input", "soy.csv", "--counting", "counts.csv",
                                  "--profile", "paper-reproduction"),
        "8933940a21d24c05893d6dbe5085c7db9f539aeddc88acb55a720d1ca97d65a6"),
    # The influence audit that CI runs on the installed package, recorded before the heaviest
    # study's subset was always pooled directly.
    "report-audit-influence": (lambda: _cli("audit", "--input", "soy.csv",
                                            "--influence-threshold", "0.2"),
        "0a5ef89ee9da69f89af1076d1246eb15fc67062306f2fcaa736c56e88fcdc824"),
    "report-count": (lambda: _cli("count", "--input", "counts.csv"),
        "290f9057ff6f73185fbc15ca085e717199acbe105501d92d024481065b8af128"),
    "report-derive": (lambda: _cli("derive", "--input", "soy.csv"),
        "069de2d5ba8e277838a8fd8b23c71546ca5a0a16f44433a745fbec8c8efee07d"),
    # Deriving derive's output again, or counting count's, reproduces it byte for byte: these
    # have report-derive's and report-count's digests.
    "report-rederive": (lambda: _cli("derive", "--input", "derived.csv"),
        "069de2d5ba8e277838a8fd8b23c71546ca5a0a16f44433a745fbec8c8efee07d"),
    "report-recount": (lambda: _cli("count", "--input", "spaces.csv"),
        "290f9057ff6f73185fbc15ca085e717199acbe105501d92d024481065b8af128"),
    # Each plot kind as the CLI writes it: the SVG, parsed as XML, then its two sidecars.
    "report-plot-pvalue": (lambda: _cli("plot", "--input", "soy.csv", "--kind", "pvalue",
                                        "--output", "pvalue.svg"),
        "b182e220f7d34af8837e1c728f0fccec1d1726feb63bb068dc8804963ca6d2bd"),
    "report-plot-expectation": (lambda: _cli("plot", "--input", "soy.csv", "--kind",
                                             "expectation", "--output", "expectation.svg"),
        "6064d7d5ff0c5d26ef73827571784f14f1766d8b2575c44c3869484b754b996a"),
    "report-plot-volcano": (lambda: _cli("plot", "--input", "soy.csv", "--kind", "volcano",
                                         "--output", "volcano.svg"),
        "b47f339540f763c54ba578e583bbd79752bfa5ba61d401d3856b3a219c1acbc9"),
    # "\udcff" is what the interpreter makes of an argv byte 0xFF: the report's label holds
    # U+FFFD in its place.
    "report-audit-label": (lambda: _cli("audit", "--input", "soy.csv", "--label", "a\udcffb"),
        "a128dbcc9dcc193feefd2e0958d912e76372c40bafffe2647357072dd3855f29"),
    # A count cell with a digit-group underscore is malformed (exit 5).
    "report-count-underscore": (lambda: _refused(5, "count", "--input", "underscore.csv"),
        "add57fa4a51ddfbac619352acd6f9b7f35027749f5a70da0033337733b53c9ab"),
    # stdout of each call on the edge rows, recorded before the counting parser built its
    # entries in one place.
    "edge-count": (lambda: _cli("count", "--input", "edge.csv"),
        "6af8bbbf747ee8e45abf156d139cfc3dced624d3d56af85b919833644105034c"),
    "edge-audit": (lambda: _cli("audit", "--input", "soy.csv", "--counting", "edge.csv"),
        "4d081b45bcfb237ee31d0c477cbdf9c3fc2bd1b55faa1384e5f662d41c1669ca"),
    # simulate's stdout, recorded before the simulator computed several replicates' Philox lanes
    # at once. They pin every printed p-value and KS figure, which the benchmark's verdict
    # digests leave out. The first is the benchmark's sim-mixture call at seed 1.
    "simulate-mixture": (lambda: _cli("simulate", "--n", "100", "--effect-fraction", "0.2",
                                      "--noncentrality", "3.0", "--censor-rate", "0.3",
                                      "--replicates", "600", "--seed", "1"),
        "cce8a6f566b279bf4d0e122e32ccbca2cc0caeddd6550e3c60c9abd03d08ad6a"),
    # 185 words a replicate (not a whole number of four-word blocks), and more replicates than
    # one batch of lanes holds.
    "simulate-batches": (lambda: _cli("simulate", "--n", "37", "--hack-k", "3", "--censor-preset",
                                      "greenwald", "--replicates", "130", "--seed", "9"),
        "0a785725718a5662b6dc3c732c1d73e724267b82ce0435c65cd41db8a730af92"),
    # Too few studies to classify: every replicate is indeterminate.
    "simulate-indeterminate": (lambda: _cli("simulate", "--n", "4", "--replicates", "60"),
        "2367c9b5f88b3d807314458a61262b955b66607f666b7a6de2eef9429b5b4056"),
    # Every verdict field and every chosen breakpoint (with its slopes and SSE, bilinear or
    # not), bit for bit, as the per-call hinge moments and the separate KS sort produced them.
    "verdicts-mixture-seed0": (lambda: _verdicts(0),
        "f618949c1873de9770fdc912f58ddff0c904c0dc3496a20ed483563b9243334c"),
    "verdicts-mixture-seed5": (lambda: _verdicts(5),
        "2bfb5051dae1cb5e87a834bfe107d8ecc905c65c04585b5261dbd83f1c5c5b94"),
    "verdicts-hacked-seed8": (lambda: _verdicts(8, hack_k=3, censor_rate=greenwald_censor_rate(3)),
        "1c12987b5e0c77dd18df7991cfd310a1418124b7a4235e7d902113266a4285f7"),
    "verdicts-small-seed21": (lambda: _verdicts(21, n_studies=12, effect_fraction=0.5),
        "cebd031b0d8e2956915f495e28b12e26f585cb9aaca98095bf10bcb798325358"),
    # Every replicate's reported p-values, bit for bit, as the numpy-era simulator and the
    # per-block generator produced them.
    "pvalues-mixture-seed5": (lambda: _pvalues(5, 600, **_MIXTURE),
        "8ee65525ec60877646c5481b0a8ce7daceb1f29389a06fb9dddb468cf22fac64"),
    "pvalues-hacked-seed9": (lambda: _pvalues(9, 300, n_studies=40, hack_k=5,
                                              censor_rate=greenwald_censor_rate(5)),
        "1725863a385260f77603c73e902dedda8d7f82f196838a3ee62f97c7576b6813"),
    "pvalues-hacked-bigseed": (lambda: _pvalues(2 ** 100 + 3, 300, n_studies=60, hack_k=3,
                                                noncentrality=-2.5, effect_fraction=0.4,
                                                censor_rate=0.5),
        "b470daf0d05f6e2611634f0ca597939b40cc76d4bfa1414d54a8d6ba7a83ab54"),
    # Each SVG, recorded before the renderer was rewritten to write each element form once; the
    # first is also the bundled-session pvalue.svg. svg-one-expectation has no identity line,
    # which misses its plot area.
    "svg-soy-pvalue": (lambda: render_series(pvalue_plot(_soy()), title="soy: pvalue"),
        "22796dc8be9eabbf6fa62c1edabfacdf4081ed1e7a4c202f8d82cc46b9f8f5e9"),
    "svg-soy-expectation": (lambda: render_series(expectation_plot(_soy()), title="a & <b> 'q'"),
        "31f0e8bba9c8b3d64b970eb2dce533920c3346658d1b34c380dba26ab43e0791"),
    "svg-soy-volcano": (lambda: render_series(volcano_plot(_soy())),
        "933ce981b4ee833e0a005913d34c204755a4840d75b8ab1d50f9c294e113b3b5"),
    "svg-soy-volcano-exclude": (lambda: render_series(volcano_plot(_soy(), exclude=(0, 5))),
        "c3c4cd5d7335a3eac8cc69bd58f2f597f09be0a82b6a2ac8d94c83f677e9826a"),
    "svg-one-volcano": (lambda: render_series(volcano_plot(_one())),
        "a08ab48d96925241ad1f9c3d0bdc8674ccc218a69cb4bf380a79974da41f3d8e"),
    "svg-one-expectation": (lambda: render_series(expectation_plot(_one())),
        "082e0fe6d52f2a87dec19fe93bbf676b4cf1c677f9b03192a33641786d10fd60"),
    "svg-constant-pvalue": (lambda: render_series(pvalue_plot(_constant())),
        "0bf793141fa1ed988f42d8e93bf676bfaae34ca815c95aa5dc8887621db2bfc8"),
    # The sidecar CSVs of the three kinds, recorded before they shared the derive and count
    # CSV writer.
    "csv-soy-pvalue": (lambda: series_csv(pvalue_plot(_soy())),
        "06ffe4f48d6f1bb405cbe49c7046cdcd4908a033e3accd8ab265ef7905ac8906"),
    "csv-soy-pvalue-ref": (lambda: reference_lines_csv(pvalue_plot(_soy())),
        "35a64a662d1b0f36a130784b297a0df07d9a6f75e4485c736592164dac44473b"),
    "csv-soy-expectation": (lambda: series_csv(expectation_plot(_soy())),
        "5f1917c7a741823f97b1018128074a6f83a173e81f4f0eb93e732cae03995cd4"),
    "csv-soy-expectation-ref": (lambda: reference_lines_csv(expectation_plot(_soy())),
        "91cc15b7577899e3cfff0158a1146d8cca9bb2d233ae26623c74ad79d111e6c9"),
    "csv-soy-volcano": (lambda: series_csv(volcano_plot(_soy())),
        "5307ae5d3dec1a628658999cab438bda891e7b0db523fa9cea5478f3cf75d18c"),
    "csv-soy-volcano-ref": (lambda: reference_lines_csv(volcano_plot(_soy())),
        "e096f393f57232c05348c4a19970d7355c71be755e8f59a19f53a90674393492"),
    # Every field of a set at the tau^2 clamp, where tau^2 and I^2 are the exact DL values
    # correctly rounded (the double sums alone give 0 and 0).
    "pool-at-clamp": (lambda: repr(pool_dl(AT_CLAMP)),
        "2c8f4eaf09e8d731ddc433bda1b1cfbfa6d9f6e93410c4dc4046eb465831047a"),
    # Leave-one-out influence of 300 small seeded sets and one in the shape of large-audit,
    # recorded when a tie in the heaviest weight first went to the larger effect, and each copy
    # of the heaviest study took its value. From a tree that differed by that alone, only the
    # large set moved: its heaviest study is now row 435 of 12 tied weights, and 7 doubles moved.
    "loo-influence": (_loo,
        "4f8039cef16ad32929cbf773018afa0ee3199cd47a5e4139462d21f26370c92a"),
}


def check(pins=PINS) -> list[str]:
    """The names of the pins whose call's text does not have their digest."""
    return [name for name, (call, want) in pins.items() if digest(call()) != want]


def main(pins=PINS) -> int:
    failed = check(pins)
    for name in failed:
        print(f"MISMATCH {name}")
    print(f"{len(pins) - len(failed)} of {len(pins)} pins match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
