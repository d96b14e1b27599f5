"""Fresh-interpreter probe, run by run.py.

Reads a workload config document (JSON) on stdin and times importing
``cyberrisk.config``, ``.engine`` and ``.report`` and then parsing the
document. With ``--run WORKERS`` it then runs the workload once and adds
the report's SHA-256 and the peak RSS of this process and of its largest
child. Prints one JSON object. The caller puts the checkout's ``src``
directory on PYTHONPATH.
"""

import sys
import time

text = sys.stdin.read()
t0 = time.perf_counter()
import cyberrisk.config  # noqa: E402
import cyberrisk.engine  # noqa: E402
import cyberrisk.report  # noqa: E402
t1 = time.perf_counter()
import json  # noqa: E402  (already loaded by cyberrisk.report)

spec = cyberrisk.config.parse_config(json.loads(text))
t2 = time.perf_counter()
record = {"import_s": t1 - t0, "parse_s": t2 - t1, "module": cyberrisk.config.__file__}
if len(sys.argv) == 3 and sys.argv[1] == "--run":
    import hashlib
    import resource

    report = cyberrisk.engine.run_simulation(spec, workers=int(sys.argv[2]))
    record["sha256"] = hashlib.sha256(cyberrisk.report.render_json(report).encode()).hexdigest()
    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["children_maxrss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps(record))
