"""Run one starq CLI invocation with the span recorder installed.

Usage: python3 perfbench/traced_cli.py SPAN_FILE PASS_ID -- <starq argv...>

stdout, stderr and the exit code are those of `starq <argv>`; the spans of
the call, and the time a cold `import starq.cli` took, go to SPAN_FILE.
"""

import sys
from time import perf_counter


def main():
    span_file, pass_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPAN_FILE PASS_ID -- ARGV...")
    t0 = perf_counter()
    import starq.cli
    import_s = perf_counter() - t0
    import spans     # after the timed import: it loads numpy itself
    rec = spans.Recorder()
    spans.install(rec)
    rec.pass_id = int(pass_id)
    rc = starq.cli.main(argv)
    rec.dump(span_file, {"import_s": import_s})
    return rc


if __name__ == "__main__":
    sys.exit(main())
