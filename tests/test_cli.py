import csv
import io
import json
from dataclasses import fields
from fractions import Fraction

import pytest

from permprod import cli, stats, sweeps
from permprod.cli import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    emit_report,
    main,
    sampler_from_text,
    sampler_to_text,
    serialize_config,
)
from permprod.samplers import SamplerSpec


def _config_from_text(text):
    # A config file body, read as ``--config`` reads it.
    return config_from_mapping(cli._mapping_from_text(text))


def test_sampler_text_round_trip():
    for text in ("uniform", "ewens:1/2", "ewens:2", "sqrt_fixed:sqrt", "sqrt_fixed:3", "matching_heavy:1/2"):
        spec = sampler_from_text(text)
        assert sampler_to_text(spec) == text
    assert sampler_from_text(" ewens:1/2 ").theta == Fraction(1, 2)


def test_sampler_text_rejects_garbage():
    for bad in ("uniform:1", "ewens", "ewens:abc", "ewens:1/0", "sqrt_fixed:x", "bogus:1"):
        with pytest.raises(ConfigError):
            sampler_from_text(bad)


def test_config_round_trip():
    config = ExperimentConfig(
        command="convergence",
        seed=7,
        samplers=(SamplerSpec("ewens", theta=Fraction(2)), SamplerSpec("uniform")),
        n_grid=(100, 200),
        functionals=(),
        tv_orders=(2,),
        samples=500,
        truncation=6,
        format="json",
    )
    assert _config_from_text(serialize_config(config)) == config
    # One config per command; between them every field is off its default.
    per_command = [
        config,
        ExperimentConfig(
            command="sample",
            seed=1,
            samplers=(SamplerSpec("sqrt_fixed", fixed_count="sqrt"),),
            n=9,
            samples=3,
            output="out dir/rows.csv",
        ),
        ExperimentConfig(
            command="moments",
            seed=2,
            samplers=(SamplerSpec("matching_heavy", two_cycle_fraction=Fraction(1, 3)),),
            n=12,
            functionals=tuple(
                stats.parse_functional(t)
                for t in ("product:1*2", "fixed-moment:2", "two-cycle-rate")
            ),
            samples=100,
        ),
        ExperimentConfig(
            command="convergence",
            seed=3,
            samplers=(SamplerSpec("ewens", theta=Fraction(1, 2)),) * 2,
            n_grid=(5, 6),
            functionals=(stats.parse_functional("product:1"),),
            samples=100,
        ),
        ExperimentConfig(
            command="exact",
            samplers=(SamplerSpec("ewens", theta=Fraction(7, 3)), SamplerSpec("uniform")),
            n=6,
            v_vec=(1, 2, 2),
            output="exact.json",
            format="json",
        ),
        ExperimentConfig(command="verify-lemmas", seed=5, pair_n=4, single_n=9),
        ExperimentConfig(
            command="counterexample",
            seed=6,
            samplers=(SamplerSpec("sqrt_fixed", fixed_count=2),) * 2,
            n=10,
            samples=200,
        ),
    ]
    assert [c.command for c in per_command[1:]] == list(cli._COMMANDS)
    off_default = set()
    for c in per_command:
        text = serialize_config(c)
        assert _config_from_text(text) == c
        assert serialize_config(_config_from_text(text)) == text
        off_default |= {f.name for f in fields(c) if getattr(c, f.name) != f.default}
    # command has no default, so it counts as set in each config.
    assert off_default == {f.name for f in fields(ExperimentConfig)}
    unseeded = ExperimentConfig(command="verify-lemmas", pair_n=4)
    assert serialize_config(unseeded) == "command = verify-lemmas\npair_n = 4\n"
    assert _config_from_text(serialize_config(unseeded)) == unseeded


def test_config_text_comments_and_duplicates():
    text = "# demo\ncommand = verify-lemmas\n\nseed = 3\npair_n = 4\n"
    config = _config_from_text(text)
    assert config.command == "verify-lemmas" and config.pair_n == 4
    with pytest.raises(ConfigError, match="duplicate"):
        _config_from_text("command = exact\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        _config_from_text("command exact\n")


def test_config_missing_and_unknown_fields():
    with pytest.raises(ConfigError, match="seed"):
        config_from_mapping(
            {"command": "sample", "samplers": "uniform", "n": "4", "samples": "2"}
        )
    with pytest.raises(ConfigError, match="command"):
        config_from_mapping({"seed": "3"})
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"command": "verify-lemmas", "seed": "1", "extra": "x"})


def test_config_rejects_inapplicable_fields():
    with pytest.raises(ConfigError, match="v_vec"):
        config_from_mapping(
            {
                "command": "sample",
                "seed": "1",
                "samplers": "uniform",
                "n": "6",
                "samples": "10",
                "v_vec": "1",
            }
        )


def test_config_value_checks():
    base = {"command": "exact", "seed": "1", "samplers": "uniform, uniform", "v_vec": "1"}
    with pytest.raises(ConfigError, match="n:"):
        config_from_mapping({**base, "n": "17"})
    assert config_from_mapping({**base, "n": "16"}).n == 16
    with pytest.raises(ConfigError, match="samplers"):
        config_from_mapping({**base, "samplers": "uniform", "n": "5"})
    with pytest.raises(ConfigError, match="v_vec"):
        config_from_mapping({**base, "n": "4", "v_vec": "1, 1, 1, 1, 1"})
    with pytest.raises(ConfigError, match="seed"):
        config_from_mapping({**base, "n": "4", "seed": "-1"})
    with pytest.raises(ConfigError, match="n_grid"):
        config_from_mapping(
            {
                "command": "convergence",
                "seed": "1",
                "samplers": "uniform, uniform",
                "n_grid": "6, 4",
                "samples": "200",
                "tv_orders": "2",
            }
        )
    with pytest.raises(ConfigError, match="functionals"):
        config_from_mapping(
            {
                "command": "convergence",
                "seed": "1",
                "samplers": "uniform, uniform",
                "n_grid": "4, 6",
                "samples": "200",
            }
        )


def test_text_table_covers_every_field_but_command_in_order():
    assert list(cli._TEXT) == [f.name for f in fields(ExperimentConfig)][1:]
    assert fields(ExperimentConfig)[0].name == "command"


def test_every_subcommand_takes_one_flag_per_config_field():
    expected = [
        "--config", "--seed", "--samplers", "--n", "--n-grid", "--v-vec",
        "--functionals", "--tv-orders", "--samples", "--truncation", "--pair-n",
        "--single-n", "--output", "--format",
    ]
    (subparsers,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert list(subparsers.choices) == list(cli._COMMANDS)
    for command, sub in subparsers.choices.items():
        flags = [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        assert flags == expected
        # Every flag is kept as its text, for config_from_mapping to parse.
        args = sub.parse_args([a for flag in expected[1:] for a in (flag, " 7 ")])
        assert [getattr(args, key) for key in cli._TEXT] == [" 7 "] * len(cli._TEXT)


@pytest.mark.parametrize("key, raw", [("n", "x"), ("seed", "1.5"), ("format", "xml")])
@pytest.mark.parametrize("source", ["flag", "config file"])
def test_a_malformed_value_is_a_config_error_naming_its_field(key, raw, source, tmp_path, capsys):
    entries = {"samplers": "uniform, uniform", "n": "4", "v_vec": "1", key: raw}
    if source == "flag":
        argv = ["exact", *(a for k, v in entries.items() for a in (f"--{k}".replace("_", "-"), v))]
    else:
        f = tmp_path / "c.cfg"
        f.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        argv = ["exact", "--config", str(f)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {key}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--n", "5", "--samples", "200"],
        ["convergence", "--n-grid", "5, 6", "--samples", "200"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("functional", ["fixed-moment:2", "two-cycle-rate"])
def test_single_factor_functionals_of_a_product_name_functionals(
    argv, functional, monkeypatch, capsys
):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before rejecting the config")

    monkeypatch.setattr("permprod.stats.draw_chunks", no_draw)
    argv = argv + ["--seed", "1", "--functionals", f"product:1, {functional}"]
    assert main(argv + ["--samplers", "uniform, uniform"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: functionals: functional {functional} applies to a single "
        "sampler, got 2\n"
    )
    monkeypatch.undo()
    assert main(argv + ["--samplers", "uniform"]) == 0


def test_emit_report_csv_layout():
    rows = [
        {"n": 4, "value": Fraction(1, 3), "x": 0.123456789012345, "flag": True},
        {"n": 5, "value": Fraction(2, 1), "x": None, "flag": False},
    ]
    config = ExperimentConfig(command="verify-lemmas", seed=9)
    text = emit_report(rows, "csv", config=config, trends={"product:1": "non-increasing"})
    lines = text.splitlines()
    assert lines[0].startswith("# config: command = verify-lemmas; seed = 9")
    assert lines[1] == "# trend product:1 = non-increasing"
    assert lines[2] == "n,value,x,flag"
    assert lines[3] == "4,1/3,0.123456789012,true"
    assert lines[4] == "5,2/1,,false"


def test_emit_report_json_layout():
    rows = [{"n": 4, "value": Fraction(1, 3), "x": None}]
    config = ExperimentConfig(command="verify-lemmas", seed=9)
    doc = json.loads(emit_report(rows, "json", config=config))
    assert doc["config"]["command"] == "verify-lemmas"
    assert doc["rows"][0] == {"n": 4, "value": "1/3", "x": None}
    assert "trends" not in doc


def test_emit_report_refuses_empty_or_ragged():
    with pytest.raises(ValueError):
        emit_report([], "csv")
    with pytest.raises(ValueError):
        emit_report([{"a": 1}, {"b": 2}], "csv")
    with pytest.raises(ValueError):
        emit_report([{"a": 1}], "yaml")


def test_provenance_excludes_output_path(tmp_path):
    out = tmp_path / "r.csv"
    config = ExperimentConfig(command="verify-lemmas", seed=9, output=str(out))
    text = emit_report([{"a": 1}], "csv", path=str(out), config=config)
    assert "output" not in text.splitlines()[0]
    assert out.read_text() == text


def test_main_exact_run(tmp_path, capsys):
    out = tmp_path / "exact.csv"
    code = main(
        [
            "exact",
            "--seed",
            "1",
            "--samplers",
            "uniform, uniform",
            "--n",
            "6",
            "--v-vec",
            "1, 1",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    rows = list(csv.DictReader(ln for ln in out.read_text().splitlines() if not ln.startswith("#")))
    by_quantity = {r["quantity"]: r for r in rows}
    assert by_quantity["moment"]["rational"] == "2/1"
    assert by_quantity["moment"]["v"] == "1*1"
    assert by_quantity["joint-prob"]["n"] == "6"


def test_main_scaled_joint_prob_value(capsys):
    code = main(
        ["exact", "--seed", "1", "--samplers", "uniform, uniform", "--n", "5", "--v-vec", "1, 2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(ln for ln in out.splitlines() if not ln.startswith("#")))
    scaled = next(r for r in rows if r["quantity"] == "scaled-joint-prob")
    assert scaled["rational"] == "5/4"


def test_main_exact_size_cap_and_three_factors(capsys):
    argv = ["exact", "--samplers", "ewens:2, ewens:1/2", "--v-vec", "1"]
    assert main(argv + ["--n", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: n: ")
    # a uniform factor makes the whole product uniform: E t_1 = 1
    assert main(["exact", "--samplers", "ewens:2, ewens:1/2, uniform", "--n", "9", "--v-vec", "1"]) == 0
    rows = list(csv.DictReader(ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")))
    assert {r["quantity"]: r["rational"] for r in rows}["moment"] == "1/1"


def test_main_verify_lemmas_small(capsys):
    code = main(["verify-lemmas", "--seed", "0", "--pair-n", "3", "--single-n", "4"])
    assert code == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(ln for ln in out.splitlines() if not ln.startswith("#")))
    assert all(r["violations"] == "0" for r in rows)
    assert all(r["ok"] == "true" for r in rows)
    suites = {r["suite"] for r in rows}
    assert "relabel-dichotomy" in suites and "membership-upper-bounds" in suites


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--samplers", "uniform", "--n", "4", "--samples", "2"],
        ["moments", "--samplers", "uniform, uniform", "--n", "6",
         "--functionals", "product:1", "--samples", "100"],
        ["convergence", "--samplers", "uniform, uniform", "--n-grid", "4, 6",
         "--functionals", "product:1", "--samples", "100"],
        ["counterexample", "--samplers", "uniform, uniform", "--n", "6", "--samples", "100"],
    ],
)
def test_sampling_commands_require_a_seed(argv, capsys):
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err
    assert main(argv + ["--seed", "1"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--samplers", "uniform, uniform", "--n", "5", "--v-vec", "1, 2"],
        ["verify-lemmas", "--pair-n", "3", "--single-n", "4"],
    ],
)
def test_exact_and_verify_lemmas_need_no_seed(argv, capsys):
    assert main(argv) == 0
    bare_config, _, bare_body = capsys.readouterr().out.partition("\n")
    assert main(argv + ["--seed", "4"]) == 0
    seeded_config, _, seeded_body = capsys.readouterr().out.partition("\n")
    assert "seed" not in bare_config
    assert seeded_config.startswith(f"# config: command = {argv[0]}; seed = 4;")
    assert bare_body == seeded_body


@pytest.mark.parametrize("law, n", [("sqrt_fixed:3", 4), ("matching_heavy:1/2", 5)])
@pytest.mark.parametrize(
    "command, extra",
    [
        ("sample", ["--n", "{n}", "--samples", "2"]),
        ("moments", ["--n", "{n}", "--functionals", "product:1", "--samples", "100"]),
        # the infeasible size is the last grid point, after a feasible one
        ("convergence", ["--n-grid", "{m}, {n}", "--tv-orders", "2", "--samples", "100"]),
        ("counterexample", ["--n", "{n}", "--samples", "100"]),
        ("exact", ["--n", "{n}", "--v-vec", "1"]),
    ],
)
def test_infeasible_fixed_law_names_samplers(command, extra, law, n, capsys):
    args = [a.format(n=n, m=n - 1) for a in extra]
    argv = [command, "--seed", "1", "--samplers", f"{law}, uniform", *args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: samplers: ")
    assert "infeasible" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--n", "6", "--functionals", "product:1"],
        ["counterexample", "--n", "6"],
        ["convergence", "--n-grid", "5, 6", "--functionals", "product:1", "--tv-orders", "2"],
    ],
)
def test_too_few_samples_for_estimates_name_samples_before_drawing(argv, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before rejecting the config")

    monkeypatch.setattr("permprod.stats.draw_chunks", no_draw)
    common = ["--seed", "1", "--samplers", "uniform, uniform", "--samples", "50"]
    assert main(argv + common) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: samples: ")


def test_tv_only_convergence_takes_any_positive_sample_count(capsys):
    argv = ["convergence", "--seed", "1", "--samplers", "uniform, uniform"]
    assert main(argv + ["--n-grid", "5, 6", "--tv-orders", "2", "--samples", "3"]) == 0
    assert "tv:2" in capsys.readouterr().out
    assert main(argv + ["--n-grid", "5, 6", "--tv-orders", "2", "--samples", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: samples: ")


def test_main_sample_layout_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "sample",
        "--seed",
        "13",
        "--samplers",
        "ewens:1, uniform",
        "--n",
        "5",
        "--samples",
        "12",
    ]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.DictReader(ln for ln in out1.read_text().splitlines() if not ln.startswith("#")))
    assert len(rows) == 12
    assert set(rows[0]) == {"index", "factor1", "factor2", "product"}
    # rows carry one-line permutations of 1..5
    assert sorted(rows[0]["product"].split()) == ["1", "2", "3", "4", "5"]


def test_main_convergence_single_point_no_trend(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "convergence",
            "--seed",
            "5",
            "--samplers",
            "uniform, uniform",
            "--n-grid",
            "8",
            "--functionals",
            "product:1",
            "--samples",
            "400",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "# trend" not in text
    assert text.splitlines()[0].startswith("# config:")


def test_main_convergence_grid_emits_trend(capsys):
    code = main(
        [
            "convergence",
            "--seed",
            "5",
            "--samplers",
            "uniform, uniform",
            "--n-grid",
            "6, 12",
            "--functionals",
            "product:1",
            "--samples",
            "400",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert any(ln.startswith("# trend product:1 = ") for ln in out.splitlines())


def test_main_moments_json(capsys):
    code = main(
        [
            "moments",
            "--seed",
            "2",
            "--samplers",
            "ewens:2, ewens:1/2",
            "--n",
            "30",
            "--functionals",
            "product:1, product:2",
            "--samples",
            "500",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["command"] == "moments"
    assert [r["functional"] for r in doc["rows"]] == ["product:1", "product:2"]
    assert all(r["stderr"] > 0 for r in doc["rows"])


@pytest.mark.parametrize(
    "field, argv",
    [
        ("n", ["sample", "--n", str(2**31)]),
        ("n_grid", ["convergence", "--n-grid", f"5, {2**31}", "--tv-orders", "1"]),
    ],
)
def test_sizes_beyond_int32_rows_name_their_field(field, argv, capsys):
    # Rejected while validating, so nothing of that size is allocated.
    assert main(argv + ["--seed", "1", "--samplers", "uniform", "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {field}: ")
    ok = {"command": "sample", "seed": "1", "samplers": "uniform", "samples": "2"}
    assert config_from_mapping({**ok, "n": str(2**31 - 1)}).n == 2**31 - 1


_HUGE_THETA = "ewens:1" + "0" * 400


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "5", "--samples", "3"],
        ["moments", "--n", "5", "--samples", "300", "--functionals", "product:1"],
        ["convergence", "--n-grid", "5, 6", "--samples", "300", "--functionals", "product:1"],
        ["counterexample", "--n", "5", "--samples", "300"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_theta_beyond_floats_is_a_config_error_where_it_is_drawn(argv, capsys):
    # The draws read theta as a float, which 10^400 overflows.
    assert main(argv + ["--seed", "1", "--samplers", f"{_HUGE_THETA}, uniform"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: samplers: ")
    assert "largest float" in captured.err


def test_exact_takes_a_theta_beyond_floats(tmp_path):
    # exact works in rationals: at theta = 10^400, E t_1 of the product
    # falls short of 4 by about 2.4 * 10^-399.
    path = tmp_path / "exact.csv"
    argv = ["exact", "--samplers", f"{_HUGE_THETA}, {_HUGE_THETA}", "--n", "4", "--v-vec", "1"]
    assert main(argv + ["--output", str(path)]) == 0
    moment = next(line for line in path.read_text().splitlines() if line.startswith("4,moment,1,"))
    value = Fraction(moment.split(",")[3])
    assert 0 < 4 - value < Fraction(1, 10**390)


@pytest.mark.parametrize(
    "tv_orders, truncation",
    [("6", "100"), ("2, 7", "8"), ("23", "1"), ("2", "2048")],
)
def test_tv_lattice_above_the_cap_names_its_field(tv_orders, truncation, monkeypatch, capsys):
    # Rejected while validating: (truncation + 1)^k cells of order 6 at
    # truncation 100 would take 7.72 TiB once every sample was drawn.
    def unreachable(*args, **kwargs):
        raise AssertionError("drew samples for a rejected TV lattice")

    monkeypatch.setattr(stats, "draw_chunks", unreachable)
    argv = ["convergence", "--seed", "1", "--samplers", "uniform", "--n-grid", "5, 6"]
    argv += ["--tv-orders", tv_orders, "--truncation", truncation, "--samples", "50"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: tv_orders: ")
    assert f"truncation {truncation} " in captured.err
    mapping = {"command": "convergence", "seed": "1", "samplers": "uniform", "samples": "50"}
    mapping.update(n_grid="5, 6", tv_orders=tv_orders, truncation=truncation)
    with pytest.raises(ConfigError, match="^tv_orders: "):
        config_from_mapping(mapping)


def test_tv_lattice_at_the_cap_runs(capsys):
    # 4^11 = 2^22 cells is exactly the cap.
    argv = ["convergence", "--seed", "1", "--samplers", "uniform", "--n-grid", "5, 6"]
    assert main(argv + ["--tv-orders", "2, 11", "--truncation", "3", "--samples", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith(("5,tv:", "6,tv:")) for line in lines) == 4


def test_truncation_past_the_float_factorials_runs(capsys):
    # poisson_pmf reaches j = 200, where j! no longer fits a float.
    argv = ["convergence", "--seed", "1", "--samplers", "uniform", "--n-grid", "5,6"]
    assert main(argv + ["--tv-orders", "1", "--truncation", "200", "--samples", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith(("5,tv:1,", "6,tv:1,")) for line in lines) == 2


@pytest.mark.parametrize("pair_n", ["1", "2"])
def test_pair_n_below_the_largest_start_count_names_its_field(pair_n, capsys):
    # event-factorization walks the starts 1..3 of every pair.
    assert main(["verify-lemmas", "--pair-n", pair_n, "--single-n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: pair_n: ")


@pytest.mark.parametrize("pair_n", ["8", "9"])
def test_pair_n_above_the_cap_names_its_field(pair_n, monkeypatch, capsys):
    # Rejected while validating: event-factorization at n = 8 would walk
    # 23.2 million pairs.
    def unreachable(*args, **kwargs):
        raise AssertionError("run_all ran past a rejected pair_n")

    monkeypatch.setattr(sweeps, "run_all", unreachable)
    assert main(["verify-lemmas", "--pair-n", pair_n, "--single-n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: pair_n: caps at 7, ")
    with pytest.raises(ConfigError, match="^pair_n: "):
        config_from_mapping({"command": "verify-lemmas", "pair_n": pair_n})
    assert config_from_mapping({"command": "verify-lemmas", "pair_n": "7"}).pair_n == 7


@pytest.mark.parametrize("single_n", ["31", "32"])
def test_single_n_above_the_cap_names_its_field(single_n, monkeypatch, tmp_path, capsys):
    # Rejected while validating: the trace sweep checks one permutation
    # per cycle type, 5,604 at n = 30 and 37,338 at n = 40.
    def unreachable(*args, **kwargs):
        raise AssertionError("run_all ran past a rejected single_n")

    monkeypatch.setattr(sweeps, "run_all", unreachable)
    assert main(["verify-lemmas", "--single-n", single_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: single_n: caps at 30, ")
    f = tmp_path / "c.cfg"
    f.write_text(f"command = verify-lemmas\nsingle_n = {single_n}\n")
    assert main(["verify-lemmas", "--config", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: single_n: caps at 30, ")
    f.write_text("command = verify-lemmas\nsingle_n = 30\n")
    assert _config_from_text(f.read_text()).single_n == 30
    assert config_from_mapping({"command": "verify-lemmas", "single_n": "30"}).single_n == 30


def test_main_error_paths(tmp_path, capsys):
    assert main([]) == 2
    assert main(["exact", "--seed", "1", "--samplers", "uniform", "--n", "4", "--v-vec", "1"]) == 2
    assert "config error" in capsys.readouterr().err
    # config file command clash with the subcommand
    f = tmp_path / "c.cfg"
    f.write_text("command = exact\nseed = 1\n")
    assert main(["sample", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert "config file says" in err


def test_main_flags_override_config_file(tmp_path, capsys):
    f = tmp_path / "c.cfg"
    f.write_text(
        "command = exact\nseed = 1\nsamplers = uniform, uniform\nn = 4\nv_vec = 1\n"
    )
    assert main(["exact", "--config", str(f), "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "# config:" in out and "n = 5" in out.splitlines()[0]
