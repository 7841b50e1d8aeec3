"""The pinned reports of the friendlab CLI, each written once, and the one
runner that checks them.

PINS maps each pin's name to the report every one of its runs must give:
its "exit" code, and where pinned the "sha256" of stdout or a "stdout" or
"stderr" substring.  Its "runs" are the spellings of that report: each an
"argv", the input "files" it reads (name -> text, written UTF-8 into the
working directory) and the "env" variables it sets.  FLOAT_SUM_PINS and
SAMPLER_PINS pin statlab's float sums and the standard-library samplers'
first draws, and ENGINE_SHA256 the bytes of the engine's Born data and
states, each with its inputs.

    python tests/pins.py DIR

runs every pin through the `friendlab` console script on PATH, in DIR (only
the pins of the commands that load no numpy when numpy is not installed),
then every run that sets no variable through `cli.main` in this process,
which must leave numpy and dataclasses (after the numpy-free runs),
argparse, fractions and decimal unloaded, and checks the float sums, the
draws and the engine digests (without numpy, the three that need none).  It runs each demo in a
child of this interpreter too (without numpy, those that load none) and
checks its stdout against DEMO_SHA256.  It prints each run's wall time and
each failure, and exits 1 on a failure.  Besides friendlab it
imports the standard library only, and numpy for the criterion 4 digests.
Tier-1 runs the same checks on the source tree.  Re-recording a pin is one
edit of its entry here, with the reason in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import time

# the commands that draw with numpy; every other command must load none
NUMPY_COMMANDS = ("lf", "relmodel", "accept")
# OpenBLAS's oldest x86-64 kernel, and numpy without its AVX2 and AVX-512
# loops: the draws and their integer sums must give the pinned bytes there too
OTHER_KERNELS = {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"}


def _same_tables(table: str) -> str:
    """A targets file whose four pair tables are `table`."""
    return "{" + ", ".join(f'"{pair}": {table}' for pair in ("AC", "AD", "BC", "BD")) + "}"


# a feasible grid of pair tables, partly written as decimals
GRID = ('{"AC": [["0.375", "0.125"], ["1/8", "3/8"]], "AD": [["1/8", "3/8"], ["3/8", "1/8"]], '
        '"BC": [["3/8", "1/8"], ["1/8", "3/8"]], "BD": [["1/4", "1/4"], ["1/4", "1/4"]]}')
# every cell 1/4: as p/q, and as a JSON number, with an exponent and with
# underscores, and in ARABIC-INDIC DIGITs, which a reader that took the
# locale's encoding would refuse under the C locale
QUARTERS = _same_tables('[["1/4", "1/4"], ["1/4", "1/4"]]')
SPELLED = _same_tables('[[0.25, "1/4"], ["25e-2", "2_5/1_00"]]')
ARABIC = _same_tables('[["\u0661/\u0664", "\u0661/\u0664"], ["\u0661/\u0664", "\u0661/\u0664"]]')
# singles and correlators with denominators up to about 1e9 written as p/q,
# a CHSH sign variant at exactly 2 and a witness atom of 178 bits
BOUNDARY = (
    '{"AC": [["5057421788621348779/494748967919459831552", '
    '"195907577288396254805/494748967919459831552"], '
    '["256028716308051043925/494748967919459831552", '
    '"37755252534391184043/494748967919459831552"]], '
    '"AD": [["289250664407132325/732848512834549408", "8429392056096411/732848512834549408"], '
    '["38011564333723765/732848512834549408", "397156892037596907/732848512834549408"]], '
    '"BC": [["10969216809231/31421602046198", "496107209497/4488800292314"], '
    '["5612414003565/31421602046198", "1623888680989/4488800292314"]], '
    '"BD": [["24024201340214880624939155/139180725369532722761940736", '
    '"279621392236044355307720955/974265077586729059333585152"], '
    '["38128608666899794902492125/139180725369532722761940736", '
    '"259574015300881975333845237/974265077586729059333585152"]]}')
# JSON numbers, each 9-digit decimal read as written: a CHSH sign variant at
# 2 + 6e-9, so infeasible, where the nearest fractions with denominators up to
# 1e6 (2/5 and 1/10) would give 2 and feasible
NEAR = ('{"AC": [[0.400000001, 0.099999999], [0.099999999, 0.400000001]], '
        '"AD": [[0.2, 0.3], [0.3, 0.2]], '
        '"BC": [[0.400000001, 0.099999999], [0.099999999, 0.400000001]], '
        '"BD": [[0.400000001, 0.099999999], [0.099999999, 0.400000001]]}')
# every cell a 9-digit decimal, and a CHSH sign variant at 2 - 4e-9
DECIMAL = ('{"AC": [["0.124976671", "0.434161341"], ["0.351210553", "0.089651435"]], '
           '"AD": [["0.397531056", "0.161606956"], ["0.076525576", "0.364336412"]], '
           '"BC": [["0.016576683", "0.433776797"], ["0.459610541", "0.090035979"]], '
           '"BD": [["0.182518407", "0.267835073"], ["0.291538225", "0.258108295"]]}')


def _json(*argv):
    return {"argv": [*argv, "--format", "json"]}


def _config(command, text, files=None):
    return {"argv": [command, "--config", "config.json"],
            "files": {"config.json": text, **(files or {})}}


def _file(name, text):
    return {"argv": ["feasibility", "--targets", name, "--format", "json"], "files": {name: text}}


# the circuit's largest float CHSH variant is 2 + 6.7e-8 at these angles,
# so the circuit is infeasible while its targets snapped to 1e-6 are
# feasible: each verdict is stated about the snapped targets only
SNAPPED = "0,90,110.530196479,135"
ROVELLI_500 = ("rovelli", "--trials", "500", "--seed", "0")
RELMODEL_20000 = ("relmodel", "--trials", "20000", "--seed", "0")
LF_20000 = ("lf", "--trials", "20000", "--seed", "0")

PINS = {
    "help": {"exit": 0, "stdout": "usage: friendlab [-h] {basic,lf,feasibility,relmodel,rovelli,"
             "accept} ...\n", "runs": [{"argv": ["--help"]}]},
    "rovelli help": {"exit": 0, "stdout": "usage: friendlab rovelli [-h]",
                     "runs": [{"argv": ["rovelli", "--help"]}]},
    # a flag the command does not read
    "usage error": {"exit": 2, "stderr": "unrecognized arguments: --angles 1,2,3,4",
                    "runs": [{"argv": ["rovelli", "--angles", "1,2,3,4"]}]},
    # a config value the flag table refuses exits before any run
    "refused config": {"exit": 2, "stderr": "error: seed must be at least 0, got -1",
                       "runs": [_config("rovelli", '{"seed": -1}')]},
    # the report holds no per-run data; the prefix and "=" forms and a config
    # file read as the full flags
    "rovelli 500 0 json": {
        "exit": 0, "sha256": "1a244cceaf470e0caa1cfa814738e2da17dd097828049091a3992497c478e75a",
        "runs": [_json(*ROVELLI_500),
                 {"argv": ["rovelli", "--tria=500", "--seed", "0", "--trigger", "1",
                           "--format=json"]},
                 _config("rovelli", '{"trials": 500, "seed": 0, "trigger": 1, "format": "json"}')]},
    # without --format: table, every command's default
    "rovelli 500 0 table": {
        "exit": 0, "sha256": "b176ff63fe3256b1a8b474bf221a10784d2abf08ada2e830110378d11ad16d8e",
        "runs": [{"argv": [*ROVELLI_500]}]},
    "rovelli 500 0 trigger -1 json": {
        "exit": 0, "sha256": "b06b62325fc21428f6d4f1d47f8b386bc4744e827c14f1e5f9ed2a164d60d791",
        "runs": [_json(*ROVELLI_500, "--trigger", "-1")]},
    # the runs are drawn as counts, so 10^12 of them is one item; rovelli
    # exits 1 unless every check passes, where a rate can still read 1.0
    "rovelli 10^12": {"exit": 0,
                      "sha256": "7bfe1f3574bbfbad23c219e39c772dd4beb90328bba223fe8325a490776f4cad",
                      "runs": [_json("rovelli", "--trials", "1000000000000", "--seed", "0")]},
    "feasibility from-angles json": {
        "exit": 0, "sha256": "1d9c09bcf2ae6c1ab268da0c53f17fb37a8cf575b2d7104b7e76021f86a5a10f",
        "runs": [_json("feasibility", "--from-angles"),
                 _config("feasibility", '{"from_angles": true, "format": "json"}')]},
    # at SNAPPED, with the resolution line in the table
    "feasibility from-angles snapped": {
        "exit": 0, "sha256": "444a8029226be56a2de1280467327f1e153dbc6370abf5bb388fa4ffad3469f9",
        "runs": [_json("feasibility", "--from-angles", "--angles", SNAPPED)]},
    "feasibility from-angles snapped table": {
        "exit": 0, "sha256": "aeb982e30867a6c086938cd25105e9333c0fc49b4c14c368a46daa8bfeaf45c8",
        "runs": [{"argv": ["feasibility", "--from-angles", "--angles", SNAPPED]}]},
    "basic table": {
        "exit": 0, "sha256": "eca6fc01d67e927fedfca6efc384ab7ef5e721fad54c762fb44bcd5f3b6581fd",
        "runs": [{"argv": ["basic"]}]},
    # the one command whose amplitudes reach a report
    "basic json": {
        "exit": 0, "sha256": "fb704b8df53e194313f56c159a778cbfff597809478e378b50a14c098f3c1ad2",
        "runs": [_json("basic")]},
    "basic 0.6,0.8 json": {
        "exit": 0, "sha256": "93ed276263fdfff8116dc7f4807dd71851a60a111c2387278e06bb104ed4a878",
        "runs": [_json("basic", "--amps", "0.6,0.8")]},
    "basic 0.6,0.8 table": {
        "exit": 0, "sha256": "e6a8f0992641f63a30b5d5dec9e9a0cb04ae7d1dbac59f63feffa172ec3f1b96",
        "runs": [{"argv": ["basic", "--amps", "0.6,0.8"]}]},
    "feasibility grid json": {
        "exit": 0, "sha256": "01eeb826675c1acf1adc4279f23d380a304b18aec2679a2dbad4d9478e7f3c8e",
        "runs": [_file("grid.json", GRID),
                 _config("feasibility", '{"from_angles": false, "targets": "grid.json", '
                                        '"format": "json"}', {"grid.json": GRID})]},
    # the table of a feasible and of an infeasible verdict
    "feasibility grid table": {
        "exit": 0, "sha256": "f38a0bb000f4186555c8c963d092556a8195bc529d2f5af7aead60515e1b1bce",
        "runs": [{"argv": ["feasibility", "--targets", "grid.json"],
                  "files": {"grid.json": GRID}}]},
    "feasibility near table": {
        "exit": 0, "sha256": "8db7cdcc64d91f61a1587f4c2467061d49e514cf1a2a59d5ed1fa5b14cc158d1",
        "runs": [{"argv": ["feasibility", "--targets", "near.json"],
                  "files": {"near.json": NEAR}}]},
    "feasibility boundary json": {
        "exit": 0, "sha256": "afea16d5840ec092daed6a62935b07cb194d25a85b5557099c7e540bb267b1e4",
        "runs": [_file("boundary.json", BOUNDARY)]},
    "feasibility decimal json": {
        "exit": 0, "sha256": "903c15aabb4342cd593ac9644e2311874af10b27b1df404d1ec5300261a38f43",
        "runs": [_file("decimal.json", DECIMAL)]},
    "feasibility spellings json": {
        "exit": 0, "sha256": "27b9b39ac03546f70fc1d5a8ad941388ad19e0514ffad86796db3763ed1d6f7c",
        "runs": [_file("quarters.json", QUARTERS),
                 _file("spelled.json", SPELLED),
                 {**_file("arabic.json", ARABIC),
                  "env": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}}]},
    # at angles away from the defaults, the reports carry values computed
    # from the raw Born floats, so a last-ulp change in a Born table shows here
    "feasibility from-angles json at 12.5,97.25,51,173.75": {
        "exit": 0, "sha256": "6670ad79e8ce212a8f2e4e9de25cd5e92c963943a9a51bbbf16af23ee1728684",
        "runs": [_json("feasibility", "--from-angles", "--angles", "12.5,97.25,51,173.75")]},
    "feasibility from-angles json at 200,330.75,17.125,301": {
        "exit": 0, "sha256": "bc79ca9491b320c9527cb41a0736f133a6c44027b23fb458e0b1c7dfd21011e6",
        "runs": [_json("feasibility", "--from-angles", "--angles", "200,330.75,17.125,301")]},
    "lf 20000 0 json": {
        "exit": 0, "sha256": "f8586d2a840b3abe1a6e42e6d63a0890b6c9081748c32792feeb43bade12f65f",
        "runs": [_json(*LF_20000), {**_json(*LF_20000), "env": OTHER_KERNELS}]},
    "lf 20000 0 table": {
        "exit": 0, "sha256": "3809705372a9670ae6a96e2952886a622653466f8ab3d3438f21bc2b3ceebc9f",
        "runs": [{"argv": [*LF_20000]}]},
    "lf 20000 0 csv": {
        "exit": 0, "sha256": "4aa5805346a2694bf8f8a923242b798bebed41847fe9baa55019ca20fac87b9e",
        "runs": [{"argv": [*LF_20000, "--format", "csv"]}]},
    "lf 20000 0 json at 12.5,97.25,51,173.75": {
        "exit": 0, "sha256": "a05b6c699ec3f5e7690a44bc947fab6edc33e01a8bcbb9584a98cb59e9241074",
        "runs": [_json(*LF_20000, "--angles", "12.5,97.25,51,173.75")]},
    "lf 20000 0 json at 200,330.75,17.125,301": {
        "exit": 0, "sha256": "691eb69a5ea19e5c768428751cf11de278bf253a78333761b2e992d9d3d2ad5e",
        "runs": [_json(*LF_20000, "--angles", "200,330.75,17.125,301")]},
    "relmodel 20000 0 json": {
        "exit": 0, "sha256": "b8160137362a90cd439710845a5a3868180f044348e4172dc75a52ed67ee3b76",
        "runs": [_json(*RELMODEL_20000),
                 _config("relmodel", '{"planted_violation": false, "trials": 20000, "seed": 0, '
                                     '"format": "json"}')]},
    # a feasible analytic verdict, about the snapped targets (see SNAPPED)
    "relmodel 20000 0 json at 0,90,110.530196479,135": {
        "exit": 0, "sha256": "ff7e6d0bb9e95bc5e6ebd9183fa874a303102645ba3590f117b5566ff1318a6f",
        "runs": [_json(*RELMODEL_20000, "--angles", SNAPPED)]},
    "relmodel 20000 0 table at 0,90,110.530196479,135": {
        "exit": 0, "sha256": "d3f2bc323178d1bcd24ed6ef013cc882310dd2f8878583a6bfdfaa21ed6a12f1",
        "runs": [{"argv": [*RELMODEL_20000, "--angles", SNAPPED]}]},
    "relmodel 20000 0 csv": {
        "exit": 0, "sha256": "ca7e3ae30f88d1aaf7880261f70d8f24e4bca7625051b475230ed40155917451",
        "runs": [{"argv": [*RELMODEL_20000, "--format", "csv"]}]},
    # the one pinned report whose independence audit raises flags: exit 1
    "relmodel 20000 0 planted json": {
        "exit": 1, "sha256": "5f8112a938e8b73d6a0437fc37fe0cc2e6c1fa8386fbafa3cc81023e21b01d99",
        "runs": [_json(*RELMODEL_20000, "--planted-violation"),
                 _config("relmodel", '{"planted_violation": true, "trials": 20000, "seed": 0, '
                                     '"format": "json"}')]},
    # a batch is drawn as a histogram plus its first rows, so no trial count
    # costs more than another; relmodel exits 1 unless every check passes
    "relmodel 10^12": {"exit": 0,
                       "sha256": "4aa7c14bc0df0513faac1789d72c1784bd988b5d95087995360428f2fa0e0220",
                       "runs": [_json("relmodel", "--trials", "1000000000000", "--seed", "0")]},
    "accept 42 json": {
        "exit": 0, "sha256": "5bef03d569bb0ea3cf9cb6074107ce98f845a8da94d5613ad5667e74962ebd2c",
        "runs": [_json("accept", "--seed", "42"),
                 {**_json("accept", "--seed", "42"), "env": OTHER_KERNELS}]},
    "accept 42 table": {
        "exit": 0, "sha256": "3af4bb57d8054ab5e215901b2989e6d20f49601cde7b9a5a828e176fbe63496a",
        "runs": [{"argv": ["accept", "--seed", "42"]}]},
}

# one input each whose builtin float sum() differs in the last bit between
# Python 3.11 and 3.12 (3.12 compensates): statlab adds the terms left to
# right from 0, which gives these values on every Python
FLOAT_SUM_PINS = {
    "inputs": {
        "freq": (0.45724907063197023, 0.040892193308550186, 0.07806691449814127,
                 0.42379182156133827),
        "born": (0.42677669529663687, 0.07322330470336312, 0.07322330470336312,
                 0.42677669529663687),
        "e": (-0.5424755574590947, 0.8905413911078446, 0.8028549152229671, -0.9388200339328929),
        "columns": [(3843, 14744), (14765, 5502), (10715, 9730), (17914, 18459)],
    },
    "values": {
        "total_variation": 0.03531598513011152,
        "sign_variants": -1.2970518298570137,
        "homogeneity": 10669.207368034624,
    },
}

# binomial's and multinomial's first draws from random.Random(seed): random()
# is the one method whose stream Python keeps the same on every version, so
# these hold on 3.10 to 3.13; n = 2**63 - 1 is written out
SAMPLER_PINS = {
    "seed": 32,
    "binomial": [  # (n, p, five draws from one generator)
        (30, 0.25, (6, 6, 6, 4, 2)),  # n p < 10: geometric
        (1000, 0.5, (472, 491, 500, 476, 518)),  # BTRS
        (9223372036854775807, 0.75,  # BTRS at 1 - p
         (6917529029947766271, 6917529028403271423, 6917529027654796287,
          6917529029629298687, 6917529026138868735)),
        (1000000000000, 9.094947017729282e-13, (0, 0, 0, 2, 0)),  # geometric, p = 2**-40
    ],
    "multinomial": (1000000, (0.125, 0.0, 0.375, 0.5), (124420, 0, 374980, 500600)),
}


# sha256 of the little-endian float64 bytes of the engine's values beyond the
# reports: the circuit's Born tables and amplitudes (real then imaginary part)
# at the default config, at every angle 0 (where the friend unitaries have
# exact zeros) and at "configs" seeded ones, half continuous angles, half
# multiples of 1/64 degree; criterion 4's states after "rotations" Haar
# orientation unitaries, taken in turn over its five states, and their record
# distributions; and the sequential scenario's Born data.  A change in the
# last bit of any of these values, a zero's sign included, shows here
ENGINE_INPUTS = {"config seed": 29, "configs": 500, "rotation seed": 4, "rotations": 500}
ENGINE_SHA256 = {
    "born_tables": "697b4784551e46c55af64d5a2d8524476bc43ef088db6a9aef71744efd2fda1f",
    "lf_circuit": "60b8eaa4c24f87ea61edc012de2d04109c6bbd05d9a795a748f46038296ee247",
    "rovelli_states": "caf7f7129c4e8bb87b6b43bacec334262f59c6e344614ce49f94ec7e567c9fc8",
    "criterion 4 states": "2f1bd629b292472978236b699bdf8dd0ab5921012524a91ac8debe18b5eea768",
    "criterion 4 records": "e4b0ec7c7707707fad3a207df31154330d958a4927080bcee6c8a20fcb82eb7e",
}


# sha256 of each demo's stdout, by its file's stem in DEMOS; the demos that
# load numpy are NUMPY_DEMOS, and their output holds for numpy 2.4.6
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
DEMO_SHA256 = {
    "01_basic_sealed_lab": "c495cf817096cae466acd2f7dc5faa1545a3cfd753fd673e41e3d93f5e4dfe94",
    "02_four_observer_chsh": "aacda8711c015aff7000d73ec00e40ac10357029ee556ac3fc16875f95b13173",
    "03_joint_feasibility": "66613847522dda4180d9e7e25a7ff39f2d18d6d115db9baae0dcf9c3ee26ed20",
    "04_frame_relational_runs": "57a7fc2c22771bc04da55a02cbd54f66eff4694903f0c05c2f4a56c6370c697d",
    "05_sequential_records": "7ab2bcd7c074e31d5b694033ea8feb70d96d27d9d43c6f27c3fd51de92017ab5",
}
NUMPY_DEMOS = ("02_four_observer_chsh", "04_frame_relational_runs")


def needs_numpy(pin: dict) -> bool:
    return any(run["argv"][0] in NUMPY_COMMANDS for run in pin["runs"])


def check(pin: dict, code, out: bytes, err: str) -> list[str]:
    """What in one run's exit code, stdout and stderr differs from the pin."""
    problems = []
    if code != pin["exit"]:
        problems.append(f"exit {code}, pinned {pin['exit']}; stderr {err[-300:]!r}")
    if "sha256" in pin and hashlib.sha256(out).hexdigest() != pin["sha256"]:
        problems.append(f"stdout sha256 {hashlib.sha256(out).hexdigest()}, pinned {pin['sha256']}")
    if "stdout" in pin and pin["stdout"] not in out.decode("utf-8", "replace"):
        problems.append(f"stdout lacks {pin['stdout']!r}")
    if "stderr" in pin and pin["stderr"] not in err:
        problems.append(f"stderr lacks {pin['stderr']!r}: {err[-300:]!r}")
    return problems


def write_files(run: dict, directory) -> None:
    for name, text in run.get("files", {}).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def spawn(command: list[str], run: dict, directory, env=None) -> tuple:
    """Exit code, stdout bytes and stderr text of `command` + the run's argv
    in a child process in `directory`, with the run's variables set over
    `env` (os.environ by default)."""
    write_files(run, directory)
    child = subprocess.run([*command, *run["argv"]], cwd=directory, capture_output=True,
                           env={**(os.environ if env is None else env), **run.get("env", {})},
                           timeout=600)
    return child.returncode, child.stdout, child.stderr.decode("utf-8", "replace")


def call(argv: list[str]) -> tuple:
    """Exit code, stdout bytes and stderr text of `cli.main(argv)` in this
    process, in the working directory."""
    from friendlab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # help and usage errors
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue()


def in_process(directory, with_numpy: bool = True) -> dict:
    """Every run that sets no environment variable, through `cli.main` in
    this process with `directory` as the working directory: the numpy-free
    runs first, then (`with_numpy`) the others.  Returns each pin's
    problems, by name, and the modules loaded that must not be: numpy,
    argparse, fractions, decimal or dataclasses after the numpy-free runs,
    fractions or decimal after all of them.  argv is read through cli.COMMANDS, as
    argparse and the gettext it loads would add about 2.6 ms to the start-up
    of every process."""
    os.chdir(directory)
    problems, loaded = {}, {}
    stages = [(False, "after the numpy-free runs",
               ("numpy", "argparse", "fractions", "decimal", "dataclasses"))]
    if with_numpy:
        stages.append((True, "after all runs", ("fractions", "decimal")))
    for numpy_runs, stage, modules in stages:
        for name, pin in PINS.items():
            if needs_numpy(pin) == numpy_runs:
                problems[name] = []
                for run in pin["runs"]:
                    if "env" not in run:
                        write_files(run, directory)
                        problems[name] += check(pin, *call(run["argv"]))
        loaded[stage] = [module for module in modules if module in sys.modules]
    return {"problems": problems, "loaded": loaded}


def float_sums() -> dict:
    """FLOAT_SUM_PINS' values as statlab computes them from its inputs."""
    from friendlab import statlab
    given = FLOAT_SUM_PINS["inputs"]
    return {"total_variation": statlab.total_variation(given["freq"], given["born"]),
            "sign_variants": statlab.sign_variants(given["e"])[(1, -1, -1, -1)],
            "homogeneity": statlab.homogeneity(given["columns"], 1e-3)["statistic"]}


def sampler_draws() -> dict:
    """SAMPLER_PINS' draws as relmodel's samplers make them, each list from
    a fresh random.Random(seed)."""
    import random

    from friendlab import relmodel
    seed = SAMPLER_PINS["seed"]
    binomial = []
    for n, p, draws in SAMPLER_PINS["binomial"]:
        rng = random.Random(seed)
        binomial.append((n, p, tuple(relmodel.binomial(rng, n, p) for _ in draws)))
    n, born, _ = SAMPLER_PINS["multinomial"]
    return {"seed": seed, "binomial": binomial,
            "multinomial": (n, born, relmodel.multinomial(random.Random(seed), n, born))}


def engine_digests(with_numpy: bool) -> dict:
    """ENGINE_SHA256's digests as the engine computes them from
    ENGINE_INPUTS; the criterion 4 ones only `with_numpy`, as their Haar
    unitaries are numpy draws."""
    import random
    import struct

    from friendlab.hilbert import apply, born_distribution
    from friendlab.scenarios import LFConfig, RovelliConfig, born_tables, lf_circuit, rovelli_states

    def digest(values) -> str:
        return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()

    def parts(state) -> list:  # real then imaginary part of each amplitude, in index order
        return [float(x) for a in state.amps for x in (a.real, a.imag)]

    given = ENGINE_INPUTS
    rng = random.Random(given["config seed"])
    configs = [LFConfig(), LFConfig(0.0, 0.0, 0.0, 0.0)]
    for i in range(given["configs"]):
        if i % 2:
            configs.append(LFConfig(*(rng.randrange(360 * 64) / 64 for _ in range(4))))
        else:
            configs.append(LFConfig(*((360.0 * rng.random()) % 360.0 for _ in range(4))))
    tables = [p for cfg in configs for table in born_tables(cfg).values() for p in table]
    amps = [x for cfg in configs for x in parts(lf_circuit(cfg))]
    sequential = [v for trigger in (+1, -1)
                  for born, witness in rovelli_states(RovelliConfig(trigger))
                  for v in (*born, witness)]
    digests = {"born_tables": digest(tables), "lf_circuit": digest(amps),
               "rovelli_states": digest(sequential)}
    if with_numpy:
        import numpy as np

        from friendlab import acceptance
        states = [state for _, state in acceptance._scenario_states()]
        rng = np.random.default_rng(given["rotation seed"])
        rotated, records = [], []
        for i in range(given["rotations"]):
            after = apply(acceptance._random_orientation_unitary(rng), states[i % len(states)],
                          ("orientation",))
            rotated += parts(after)
            records += born_distribution(after, ("record",))
        digests.update({"criterion 4 states": digest(rotated),
                        "criterion 4 records": digest(records)})
    return digests


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/pins.py DIR", file=sys.stderr)
        return 2
    directory = os.path.abspath(argv[0])
    with_numpy = importlib.util.find_spec("numpy") is not None
    failed = []

    def timed(name: str, pin: dict, command: list[str], run: dict) -> None:
        start = time.perf_counter()
        problems = check(pin, *spawn(command, run, directory))
        ms = (time.perf_counter() - start) * 1e3
        env = "".join(f"{key}={value!r} " for key, value in run.get("env", {}).items())
        shown = " ".join([*map(os.path.basename, command), *run["argv"]])
        print(f"{ms:7.0f} ms  {env}{shown}")
        failed.extend(f"{name}: {shown}: {p}" for p in problems)

    for name, pin in PINS.items():
        if with_numpy or not needs_numpy(pin):
            for run in pin["runs"]:
                timed(name, pin, ["friendlab"], run)
    for stem, digest in DEMO_SHA256.items():
        if with_numpy or stem not in NUMPY_DEMOS:
            timed(stem, {"exit": 0, "sha256": digest},
                  [sys.executable, os.path.join(DEMOS, f"{stem}.py")], {"argv": []})
    result = in_process(directory, with_numpy)
    failed += [f"{name}, in process: {p}" for name, ps in result["problems"].items() for p in ps]
    failed += [f"{stage} in process: {', '.join(modules)} loaded"
               for stage, modules in result["loaded"].items() if modules]
    if float_sums() != FLOAT_SUM_PINS["values"]:
        failed.append(f"float sums {float_sums()}, pinned {FLOAT_SUM_PINS['values']}")
    if sampler_draws() != SAMPLER_PINS:
        failed.append(f"sampler draws {sampler_draws()}, pinned {SAMPLER_PINS}")
    for name, value in engine_digests(with_numpy).items():
        if value != ENGINE_SHA256[name]:
            failed.append(f"engine {name} sha256 {value}, pinned {ENGINE_SHA256[name]}")
    if with_numpy:
        import numpy
        print(f"numpy {numpy.__version__} (the Monte Carlo pins hold for numpy 2.4.6)")
    else:
        print("numpy not installed: the numpy-free pins only")
    for line in failed:
        print(f"FAIL {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
