"""The CSV wire schemas: pinned writer bytes and the readers' schema checks."""

import hashlib
import json
import re

import numpy as np
import pytest

import stepturn.cli as cli
import stepturn.io as st_io
from stepturn import PriorSpec, SchemaError, SimConfig, generate_reference_table
from stepturn.densities import DensityGrid
from stepturn.experiments import ReplicateRecord, RScanRecord
from stepturn.inference import PARAM_NAMES, ReferenceTable, WeightedPosterior
from stepturn.movement import LatentPath, ObservedTrack
from stepturn.summaries import SummaryVector

# sha256 of each file the writers produce from the inputs below. CRLF line
# ends, 17-significant-digit floats, "-0", exponents and the latent path's
# empty cells are all part of the pinned bytes.
GOLDEN_SHA256 = {
    "crossval.csv": "7e1e349a8a9fced76be488166777c4886942c8c748ee950db1f43c096df30211",
    "grid.csv": "2b1ea9e74cb95947d0bab98a94aac1b41f8ed0e7b4d935205b19721384577d7b",
    "grid.json": "d078fd96fc1bbbb9582fee8f9fe162e5b6166fd8ddc5cbe331b11d0167350814",
    "latent.csv": "607a9061349c34d9a57d01daf68cf0a25499400d53aaed97d119e69f1046c8b9",
    "posterior.csv": "d064cab4117acb7ca53068201c056cd3d46972948af3ec5bead28216b542df21",
    "posterior.json": "830435fcd71f9eb48507cd81d8b7b0308da7132c2ce218793077c6f280c88a62",
    "rscan.csv": "faf570653b9c446d366642f67e48e525a80f8d643d8170a8e6deec36baa8451d",
    "summary.csv": "2d12037a7e8b40962d91e8f871f9b2d1e8608df1cde5963430ed07a57af9218f",
    "table.csv": "f1ee9bc044a719737374c1a2104b573278535fbfb578879be97f1cebccc8cfbb",
    "table.json": "37e500dbe4b677792afb7362d92f58525bcfb76cf3f08fd6e855aaf3a51a4a2f",
    "track.csv": "5f4c4506547b23c8ddde8f762b7b3826cc1757c125697194c049afdf0ec6eab2",
}


def write_fixed_inputs(tmp):
    positions = np.array([[0.0, 0.0], [1 / 3, -2.5e-7], [0.1 + 0.2, 1e300], [-0.0, 2.0 ** -60]])
    latent = LatentPath(positions=positions, headings=np.array([0.5, -np.pi, 1 / 7]),
                        durations=np.array([0.25, 1e-9, 3.0]), turns=np.array([np.pi, -1 / 3]))
    track = ObservedTrack(dt=0.5, positions=positions, change_counts=np.array([-1, 0, 2]))
    table = ReferenceTable(
        params=np.array([[1 / 3, 2.0], [99.5, 1e-3], [0.0, 49.999]]),
        summaries=np.array([[0.1, 0.2, 0.3, 1 / 7], [1e-10, 5.0, 2 / 3, 9.0],
                            [-0.0, 1e5, 0.7, 0.01]]),
        prior=PriorSpec(), config=SimConfig(dt=0.5, min_obs=60), seed=11, n_resampled=2)
    posterior = WeightedPosterior(draws=np.array([[1 / 3, 2.0], [10.0, 0.1 + 0.2]]),
                                  weights=np.array([0.25, 0.75]), method="loclinear",
                                  epsilon=0.001, delta=1 / 9, n_projected=1)
    grid = DensityGrid(support=(0.0, np.pi), nodes=np.array([0.5, 1.0, 2.5]),
                       values=np.array([0.2, 1 / 3, 0.1]), quadrature_tol=1e-6,
                       meta={"kappa": 2.0})
    st_io.write_latent_csv(tmp / "latent.csv", latent)
    st_io.write_track_csv(tmp / "track.csv", track)
    st_io.write_summary_csv(tmp / "summary.csv", SummaryVector(1 / 3, 12.5, 0.1 + 0.2, 7e-5))
    st_io.write_reference_table(tmp / "table.csv", table)
    st_io.write_posterior(tmp / "posterior.csv", posterior, config={"epsilon": 0.001})
    st_io.write_crossval_csv(tmp / "crossval.csv", [
        ReplicateRecord("rejection", 0.1, 0, "kappa", 1.5, 2.5, 0.5, 3.5, 0.4),
        ReplicateRecord("neuralnet", 0.005, 2, "lambda", 0.1, 1 / 3, 0.0, 2.0, 1 / 7),
    ])
    st_io.write_rscan_csv(tmp / "rscan.csv", [
        RScanRecord("loclinear", 0.25, 10.0, 3, "kappa", 10.0, 11.25),
        RScanRecord("rejection", 4.5, 70.0, 0, "lambda", 9.0, 1 / 3),
    ])
    st_io.write_density_grid_csv(tmp / "grid.csv", grid)


def test_writer_bytes_are_pinned(tmp_path):
    write_fixed_inputs(tmp_path)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert written == GOLDEN_SHA256
    assert (tmp_path / "track.csv").read_bytes().startswith(b"j,x,y,nj\r\n0,0,0,-1\r\n")


# sha256 of each gnuplot companion script for the CSV name "x.csv"
GNUPLOT_SHA256 = {
    "gnuplot_crossval": "44b79542137f5eec221f90064a9c929088053e27bb15f11411bc9d31696965ba",
    "gnuplot_coverage": "70e892bd0cbf652f9c8de07a2eab623e945717dc41f0a78776d016068d33083b",
    "gnuplot_rscan": "e7f8abd8373fa7aba3186ecf013093d0bb83a4edc53fdc0494938a73017ec340",
}


def test_gnuplot_bytes_are_pinned():
    written = {name: hashlib.sha256(getattr(st_io, name)("x.csv").encode()).hexdigest()
               for name in GNUPLOT_SHA256}
    assert written == GNUPLOT_SHA256


def test_rscan_header_is_pinned():
    assert st_io.RSCAN_HEADER == ["method", "R", "kappa_true", "rep", "param", "truth", "median"]


# each script, its report's header, the pattern of the columns it plots (awk and
# gnuplot count from 1) and the fields they must name
GNUPLOT_COLUMNS = [
    ("gnuplot_crossval", st_io.CROSSVAL_HEADER, r"using (\d+):(\d+) ", ("truth", "median")),
    ("gnuplot_coverage", st_io.CROSSVAL_HEADER, r"using \(bin\(\$(\d+)\)\)", ("p",)),
    ("gnuplot_rscan", st_io.RSCAN_HEADER, r"using (\d+):\(abs\(\$(\d+)-\$(\d+)\)\)",
     ("R", "median", "truth")),
]


@pytest.mark.parametrize("script,header,pattern,wanted", GNUPLOT_COLUMNS,
                         ids=[script for script, *_ in GNUPLOT_COLUMNS])
def test_gnuplot_columns_name_their_fields(script, header, pattern, wanted):
    text = getattr(st_io, script)("x.csv")
    selected = re.findall(r"NR==1 \|\| \$(\d+)==\\\"(\w+)\\\"", text)
    assert {header[int(column) - 1] for column, _ in selected} == {"param"}
    assert sorted(name for _, name in selected) == sorted(PARAM_NAMES)
    plotted = re.findall(pattern, text)
    assert len(plotted) == len(PARAM_NAMES)
    for columns in plotted:
        columns = columns if isinstance(columns, tuple) else (columns,)
        assert tuple(header[int(column) - 1] for column in columns) == wanted


# one valid file per schema: header, then data rows; column 1 is numeric in all
VALID = {
    "track": ["j,x,y,nj", "0,0,0,-1", "1,0.5,0.25,0"],
    "latent": ["i,x,y,phi,t_dur,omega", "0,0,0,0.5,0.25,", "1,0.25,0.1,0.1,0.5,0.3",
               "2,0.5,0.2,,,"],
    "summary": ["s1,s2,s3,s4", "1,2,3,4"],
    "table": ["kappa,lambda,s1,s2,s3,s4", "1,2,3,4,5,6"],
    "posterior": ["kappa,lambda,weight", "1,2,1"],
    "crossval": ["method,epsilon,rep,param,truth,median,hpd_lo,hpd_hi,p",
                 "rejection,0.1,0,kappa,1,2,0.5,3,0.4"],
    "rscan": ["method,R,kappa_true,rep,param,truth,median",
              "rejection,0.5,10,0,kappa,10,11"],
}
READERS = {
    "track": lambda path: st_io.read_track_csv(path, 0.5),
    "latent": st_io.read_latent_csv,
    "summary": st_io.read_summary_csv,
    "table": st_io.read_reference_table,
    "posterior": st_io.read_posterior,
    "crossval": st_io.read_crossval_csv,
    "rscan": st_io.read_rscan_csv,
}


def _swap_first_columns(line):
    first, second, *rest = line.split(",")
    return ",".join([second, first, *rest])


def bad_variants(schema):
    """(fault, file lines) of the malformed files of one schema."""
    header, *rows = VALID[schema]
    variants = [
        ("wrong header", [_swap_first_columns(header), *rows]),
        ("extra column", [header + ",extra", *(row + ",1" for row in rows)]),
        ("too few fields", [header, *rows[:-1], rows[-1].rsplit(",", 1)[0]]),
        ("non-numeric cell", [header, _replace_second(rows[0], "abc"), *rows[1:]]),
        *((f"{cell} cell", [header, _replace_second(rows[0], cell), *rows[1:]])
          for cell in ("nan", "inf")),
    ]
    if schema not in ("crossval", "rscan"):  # a report may hold no records
        variants.append(("header only", [header]))
    return variants


def _replace_second(line, value):
    cells = line.split(",")
    cells[1] = value
    return ",".join(cells)


def write_lines(path, lines):
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return path


CASES = [(schema, fault, lines) for schema in VALID for fault, lines in bad_variants(schema)]


@pytest.mark.parametrize("schema,fault,lines", CASES,
                         ids=[f"{schema}-{fault}" for schema, fault, _ in CASES])
def test_reader_raises_schema_error(schema, fault, lines, tmp_path):
    path = write_lines(tmp_path / f"{schema}.csv", lines)
    with pytest.raises(SchemaError, match=str(path)):
        READERS[schema](path)


def _numeric_columns(schema):
    """The columns its reader parses as numbers."""
    header = VALID[schema][0]
    return [index for index, name in enumerate(header.split(","))
            if name not in ("method", "param")]


# one NaN per numeric column; "nan cell" and "inf cell" in bad_variants cover column 1
NON_FINITE = [(schema, column) for schema in VALID for column in _numeric_columns(schema)]


@pytest.mark.parametrize("schema,column", NON_FINITE,
                         ids=[f"{schema}-{column}" for schema, column in NON_FINITE])
def test_every_numeric_column_must_be_finite(schema, column, tmp_path):
    write_fixed_inputs(tmp_path)  # the table and posterior sidecars
    header, row, *rest = VALID[schema]
    path = write_lines(tmp_path / f"{schema}.csv", VALID[schema])
    READERS[schema](path)  # valid as written
    cells = row.split(",")
    cells[column] = "nan"
    write_lines(path, [header, ",".join(cells), *rest])
    with pytest.raises(SchemaError, match=str(path)):
        READERS[schema](path)


def test_header_only_reports_hold_no_records(tmp_path):
    for schema in ("crossval", "rscan"):
        path = write_lines(tmp_path / f"{schema}.csv", VALID[schema][:1])
        assert READERS[schema](path) == []


def test_valid_files_read(tmp_path):
    for schema in ("track", "latent", "summary", "crossval", "rscan"):
        READERS[schema](write_lines(tmp_path / f"{schema}.csv", VALID[schema]))


# cells of VALID["latent"] to toggle: each filled one emptied, each empty one filled
LATENT_TOGGLES = [[(0, "phi")], [(1, "t_dur")], [(2, "phi")], [(0, "omega")], [(1, "omega")],
                  [(2, "omega")], [(0, "phi"), (2, "phi")]]  # the last: every heading shifted


@pytest.mark.parametrize("toggles", LATENT_TOGGLES, ids=map(str, LATENT_TOGGLES))
def test_latent_cells_empty_where_the_writer_leaves_them(toggles, tmp_path, capsys):
    # the writer leaves phi and t_dur empty on the last row, omega on the first and last
    header, *rows = VALID["latent"]
    cells = [line.split(",") for line in rows]
    for row, column in toggles:
        index = header.split(",").index(column)
        cells[row][index] = "" if cells[row][index] else "0.5"
    path = write_lines(tmp_path / "latent.csv", [header, *map(",".join, cells)])
    message = "phi and t_dur must be empty on the last row only"
    with pytest.raises(SchemaError, match=f"{path}: {message}"):
        st_io.read_latent_csv(path)
    assert cli.main(["observe", "--latent", str(path), "--n-obs", "2",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def test_fractional_change_count_rejected(tmp_path):
    path = write_lines(tmp_path / "track.csv", ["j,x,y,nj", "0,0,0,-1", "1,0.5,0.25,0.5"])
    with pytest.raises(SchemaError, match="nj must hold integers"):
        st_io.read_track_csv(path, 0.5)


# (schema, fault, data rows, message): index columns that do not count 0, 1, ...
# in file order, and a track whose first nj is not -1
INDEX_FAULTS = [
    ("track", "j out of order",
     ["0,0,0,-1", "2,0.5,0,1", "1,0.5,0.5,0", "3,1,0.5,2", "4,1,1,3"],
     "j must count 0, 1, ..., 4 in file order"),
    ("track", "j from 1", ["1,0,0,-1", "2,0.5,0.25,0"], "j must count 0, 1, ..., 1 in file order"),
    ("track", "j repeated", ["0,0,0,-1", "0,0.5,0.25,0"], "j must count 0, 1, ..., 1 in file order"),
    ("track", "first nj 7", ["0,0,0,7", "1,0.5,0.25,0"], "nj must be -1 on the j = 0 row, found 7"),
    ("track", "first nj 0", ["0,0,0,0", "1,0.5,0.25,0"], "nj must be -1 on the j = 0 row, found 0"),
    ("latent", "i out of order",
     ["1,0,0,0.5,0.25,", "0,0.25,0.1,0.1,0.5,0.3", "2,0.5,0.2,,,"],
     "i must count 0, 1, ..., 2 in file order"),
    ("latent", "i skips", ["0,0,0,0.5,0.25,", "2,0.5,0.2,,,"],
     "i must count 0, 1, ..., 1 in file order"),
]
INDEX_COMMANDS = {"track": ["summarize", "--track"], "latent": ["directfit", "--latent"]}


@pytest.mark.parametrize("schema,fault,rows,message", INDEX_FAULTS,
                         ids=[f"{schema}-{fault}" for schema, fault, _, _ in INDEX_FAULTS])
def test_index_column_faults_exit_1(schema, fault, rows, message, tmp_path, capsys):
    path = write_lines(tmp_path / f"{schema}.csv", [VALID[schema][0], *rows])
    with pytest.raises(SchemaError, match=f"{path}: {message}"):
        READERS[schema](path)
    out = tmp_path / "out"
    assert cli.main([*INDEX_COMMANDS[schema], str(path), "--out", str(out)]) == \
        cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    """A valid table (with sidecar), summary, track and latent path."""
    root = tmp_path_factory.mktemp("good")
    table = generate_reference_table(PriorSpec(), 80, SimConfig(dt=0.5, min_obs=60), seed=2)
    st_io.write_reference_table(root / "table.csv", table)
    st_io.write_summary_csv(root / "summary.csv", SummaryVector.from_array(table.summaries[3]))
    write_lines(root / "track.csv", VALID["track"])
    write_lines(root / "latent.csv", VALID["latent"])
    return root


# the command line that reads a file of each schema; BAD marks the bad file
CLI_READS = {
    "table": ["fit", "--table", "BAD", "--summary", "GOOD/summary.csv", "--method",
              "rejection", "--epsilon", "0.1"],
    "summary": ["fit", "--table", "GOOD/table.csv", "--summary", "BAD"],
    "track": ["fit", "--table", "GOOD/table.csv", "--track", "BAD"],
    "latent": ["observe", "--latent", "BAD", "--n-obs", "2"],
}
CLI_CASES = [(schema, fault, lines, argv) for schema, argv in CLI_READS.items()
             for fault, lines in bad_variants(schema)]
CLI_CASES += [("latent", fault, lines, ["directfit", "--latent", "BAD"])
              for fault, lines in bad_variants("latent")]
CLI_CASES += [("track", fault, lines, ["summarize", "--track", "BAD"])
              for fault, lines in bad_variants("track")]


@pytest.mark.parametrize("schema,fault,lines,argv", CLI_CASES,
                         ids=[f"{argv[0]}-{schema}-{fault}" for schema, fault, _, argv in CLI_CASES])
def test_cli_exits_1_on_bad_input(schema, fault, lines, argv, good_inputs, tmp_path, capsys):
    bad = write_lines(tmp_path / f"{schema}.csv", lines)
    argv = [str(bad) if arg == "BAD" else arg.replace("GOOD", str(good_inputs)) for arg in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err



def _drop_key(payload, dotted):
    *parents, last = dotted.split(".")
    node = payload
    for part in parents:
        node = node[part]
    del node[last]
    return json.dumps(payload)


def _set_key(payload, dotted, value):
    *parents, last = dotted.split(".")
    node = payload
    for part in parents:
        node = node[part]
    node[last] = value
    return json.dumps(payload)


# a sidecar value of the wrong kind: (file, key, value, expected message)
MISTYPED = [
    ("table", "config.sim.dt", "0.5", "must be a finite number"),
    ("table", "config.sim.dt", float("nan"), "must be a finite number"),
    ("table", "config.sim.min_obs", 1500.0, "must be an integer"),
    ("table", "config.seed", "11", "must be an integer"),
    ("table", "config.seed", True, "must be an integer"),
    ("table", "config.prior.kappa_range", [0, "100"], "must be a list of two finite numbers"),
    ("table", "config.prior.lambda_range", [0.0], "must be a list of two finite numbers"),
    ("posterior", "method", 7, "must be one of rejection, loclinear, neuralnet"),
    ("posterior", "method", "lasso", "must be one of rejection, loclinear, neuralnet"),
    ("posterior", "epsilon", "x", "must be a finite number"),
    ("posterior", "epsilon", float("inf"), "must be a finite number"),
    ("posterior", "delta", None, "must be a finite number"),
    ("posterior", "n_projected", "x", "must be an integer"),
    ("posterior", "n_projected", 1.5, "must be an integer"),
    ("posterior", "n_projected", None, "must be an integer"),
]

# (file, fault, the broken sidecar's text from the written payload or None to
# delete it, expected message)
SIDECAR_FAULTS = [
    *((name, "missing", lambda payload: None, "is missing") for name in ("table", "posterior")),
    *((name, "invalid JSON", lambda payload: '{"config": ', "is not valid JSON")
      for name in ("table", "posterior")),
    ("table", "a JSON list", lambda payload: "[1, 2]", "is not a JSON object"),
    *(("table", f"no {key}", lambda payload, key=key: _drop_key(payload, key), f"key '{key}")
      for key in ("config.seed", "config.prior", "config.prior.lambda_range", "config.sim",
                  "config.sim.min_obs")),
    *(("posterior", f"no {key}", lambda payload, key=key: _drop_key(payload, key), f"key '{key}")
      for key in ("method", "epsilon", "delta", "n_projected")),
    *((name, f"{key} {value!r}",
       lambda payload, key=key, value=value: _set_key(payload, key, value),
       f"key '{key}' {message}") for name, key, value, message in MISTYPED),
]


def break_sidecar(directory, name, fault):
    sidecar = directory / f"{name}.json"
    text = fault(json.loads(sidecar.read_text()))
    if text is None:
        sidecar.unlink()
    else:
        sidecar.write_text(text)
    return sidecar


@pytest.mark.parametrize("name,fault,make,message", SIDECAR_FAULTS,
                         ids=[f"{name}-{fault}" for name, fault, _, _ in SIDECAR_FAULTS])
def test_sidecar_fault_raises_schema_error(name, fault, make, message, tmp_path):
    write_fixed_inputs(tmp_path)
    sidecar = break_sidecar(tmp_path, name, make)
    reader = {"table": st_io.read_reference_table, "posterior": st_io.read_posterior}[name]
    with pytest.raises(SchemaError, match=f"sidecar {sidecar}") as raised:
        reader(tmp_path / f"{name}.csv")
    assert message in str(raised.value)


@pytest.mark.parametrize("fault,make", [(f, m) for n, f, m, _ in SIDECAR_FAULTS if n == "table"],
                         ids=[f for n, f, _, _ in SIDECAR_FAULTS if n == "table"])
def test_cli_exits_1_on_bad_table_sidecar(fault, make, good_inputs, tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_bytes((good_inputs / "table.csv").read_bytes())
    (tmp_path / "table.json").write_bytes((good_inputs / "table.json").read_bytes())
    sidecar = break_sidecar(tmp_path, "table", make)
    code = cli.main(["fit", "--table", str(table), "--summary", str(good_inputs / "summary.csv"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}: sidecar {sidecar}") and "Traceback" not in err
