#!/usr/bin/env python3
"""Record-equality check between two builds of advtext.

    python3 tools/records_ab.py BASE_BUILD CHANGE_BUILD [--workdir DIR]

Each build directory must hold `examples/advtext_cli`. For each build, in
its own directory, the script:

  1. generates the News and Yelp tasks (`gen-task --seed 7`);
  2. trains News `lstm` and `wcnn` and Yelp `bow` and `gru`
     (`--epochs 4`, default sizes);
  3. runs twelve 40-document attack sweeps with `--records-out`:
     - greedy (`--method greedy --ls 0 --lw 0.5`) on News LSTM, Yelp BoW
       and Yelp GRU;
     - joint (`--method ggg --ls 0.2 --lw 0.2`: sentence phase, then
       Alg. 3 words) on News LSTM, News WCNN, Yelp BoW and Yelp GRU;
     - sentence only (`--method ggg --ls 0.6 --lw 0`) on Yelp BoW: no word
       is swapped, so these records depend on the sentence neighbour sets
       and the BoW scores alone;
     - greedy capped per document: News LSTM at `--max-queries 400`, Yelp
       BoW at `--max-queries 60`;
     - joint capped per document: News WCNN at `--max-queries 300`, Yelp
       GRU at `--max-queries 100`.

That makes 18 files: two tasks, four params and twelve records.

The records hold each attack's decisions, not the scores behind them, so
a change to the scores shows only where it flips a decision. Moving
every LSTM gate pre-activation one ULP away from zero changes the News
LSTM joint records; the other sweeps first change at 64 ULPs (16 is not
enough).

Exit 3 (budget-limited documents) is the expected outcome of the four
capped sweeps and counts as success. The two builds run side by side. Then
every task, params and records file is compared byte for byte, one line
per file. A change that claims bit-identical results must report every
file identical.

Exit status: 0 all identical, 1 any file differs, 2 usage error or a
failed command.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import filecmp
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TASKS = ("news", "yelp")
MODELS = (("news", "lstm"), ("news", "wcnn"), ("yelp", "bow"), ("yelp", "gru"))
GREEDY = ("--method", "greedy", "--ls", "0", "--lw", "0.5")
JOINT = ("--method", "ggg", "--ls", "0.2", "--lw", "0.2")
# (name, task, model, flags, exit codes that count as success)
ATTACKS = (
    ("news_lstm_greedy", "news", "lstm", GREEDY, (0,)),
    ("news_lstm_ggg", "news", "lstm", JOINT, (0,)),
    ("news_wcnn_ggg", "news", "wcnn", JOINT, (0,)),
    ("yelp_bow_greedy", "yelp", "bow", GREEDY, (0,)),
    ("yelp_bow_ggg", "yelp", "bow", JOINT, (0,)),
    ("yelp_bow_sentences", "yelp", "bow",
     ("--method", "ggg", "--ls", "0.6", "--lw", "0"), (0,)),
    ("yelp_gru_greedy", "yelp", "gru", GREEDY, (0,)),
    ("yelp_gru_ggg", "yelp", "gru", JOINT, (0,)),
    ("news_lstm_greedy_q400", "news", "lstm",
     GREEDY + ("--max-queries", "400"), (0, 3)),
    ("yelp_bow_greedy_q60", "yelp", "bow",
     GREEDY + ("--max-queries", "60"), (0, 3)),
    ("news_wcnn_ggg_q300", "news", "wcnn",
     JOINT + ("--max-queries", "300"), (0, 3)),
    ("yelp_gru_ggg_q100", "yelp", "gru",
     JOINT + ("--max-queries", "100"), (0, 3)),
)
DOCS = "40"


class CommandFailed(Exception):
    pass


def run(cli: Path, args: list[str], ok: tuple[int, ...] = (0,)) -> None:
    proc = subprocess.run([str(cli), *args], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode not in ok:
        raise CommandFailed(f"{cli} {' '.join(args)}: exit "
                            f"{proc.returncode}\n{proc.stderr.strip()}")


def produce(build: Path, out: Path) -> list[Path]:
    """Runs the whole sequence with one build; returns its files in order."""
    cli = build / "examples" / "advtext_cli"
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for task in TASKS:
        path = out / f"{task}.task"
        run(cli, ["gen-task", "--dataset", task, "--seed", "7",
                  "--out", str(path)])
        files.append(path)
    for task, model in MODELS:
        path = out / f"{task}_{model}.params"
        run(cli, ["train", "--task", str(out / f"{task}.task"),
                  "--model", model, "--epochs", "4", "--out", str(path)])
        files.append(path)
    for name, task, model, flags, ok in ATTACKS:
        path = out / f"{name}.records"
        run(cli, ["attack", "--task", str(out / f"{task}.task"),
                  "--model", model,
                  "--params", str(out / f"{task}_{model}.params"),
                  "--docs", DOCS, *flags, "--records-out", str(path)], ok)
        files.append(path)
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Byte-compare the tasks, params and attack records two "
                    "advtext builds produce.")
    parser.add_argument("base", type=Path, help="build directory of the base")
    parser.add_argument("change", type=Path,
                        help="build directory of the change")
    parser.add_argument("--workdir", type=Path,
                        help="keep outputs here (default: a temporary "
                             "directory, removed afterwards)")
    args = parser.parse_args(argv)
    for build in (args.base, args.change):
        if not (build / "examples" / "advtext_cli").is_file():
            print(f"error: {build}/examples/advtext_cli not found",
                  file=sys.stderr)
            return 2
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="records_ab."))
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            base_job = pool.submit(produce, args.base, workdir / "base")
            change_job = pool.submit(produce, args.change, workdir / "change")
            pairs = list(zip(base_job.result(), change_job.result()))
        differ = 0
        for base_file, change_file in pairs:
            same = filecmp.cmp(base_file, change_file, shallow=False)
            differ += not same
            print(f"{'identical' if same else 'DIFFERS  '}  {base_file.name}"
                  f"  ({base_file.stat().st_size} vs "
                  f"{change_file.stat().st_size} bytes)")
    except CommandFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(pairs) - differ} of {len(pairs)} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
