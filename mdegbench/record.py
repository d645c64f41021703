"""Write expected.json: every job's canonical output at the current commit.

    python3 mdegbench/record.py

Only for a commit whose answers are known to be right: every job must
exit 0 and pass its independent answer check, or nothing is written.
"""

import json
import sys

import jobs
import run


def main():
    sys.path.insert(0, str(run.SRC))
    import mdeg.cli

    out = {}
    for workload in jobs.WORKLOADS:
        out[workload] = {}
        for job in jobs.build(workload, 0, run.WORK / workload):
            rc, text = run.run_stages(mdeg.cli, job.stages)
            if rc != 0 or (job.check is not None and not job.check(json.loads(text))):
                print(f"{workload} / {job.name}: exit {rc} or failed answer check", file=sys.stderr)
                return 1
            out[workload][job.name] = jobs.normalized(job, text)
    run.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
