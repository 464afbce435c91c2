"""Record the frozen answers of every job of every block:

    python3 bench/freeze.py [workload ...]

Each job runs twice and must give the same answer both times and pass its
oracle. The answers go to frozen/<workload>.json, one block per line,
together with a digest of the block's job names. Run it only at a commit
whose answers are known good: the benchmark then counts every later
difference as a failure.
"""

import json
import os
import shutil
import sys

import run


def freeze(workload):
    import workloads

    names, answers = [], []
    for block in range(workloads.BLOCKS):
        workdir = os.path.join(run.OUT, "freeze-%s-%d" % (workload, block))
        try:
            jobs = workloads.build(workload, block, workdir)
            block_answers = []
            for job in jobs:
                first = job.answer(job.run())
                result = job.run()
                answer = job.answer(result)
                if first != answer:
                    raise SystemExit("%s: answer differs between two runs" % job.name)
                if job.check is not None and not job.check(result):
                    raise SystemExit("%s: answer fails its independent check" % job.name)
                block_answers.append(answer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        names.append(run.names_digest(jobs))
        answers.append(block_answers)
        print("%s block %d: %d jobs" % (workload, block, len(jobs)), flush=True)
    path = os.path.join(run.FROZEN, workload + ".json")
    os.makedirs(run.FROZEN, exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"workload": %s,\n "names": %s,\n "answers": [\n' % (
            json.dumps(workload), json.dumps(names)))
        fh.write(",\n".join("  " + json.dumps(a) for a in answers))
        fh.write("\n ]}\n")


def main(argv):
    run.import_program()
    for workload in argv or ("assoc", "gap", "structure"):
        freeze(workload)


if __name__ == "__main__":
    main(sys.argv[1:])
