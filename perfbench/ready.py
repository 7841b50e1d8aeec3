"""Set-up probe: import friendlab from this checkout, make one warm-up CLI
call (argv given as a JSON list), print "ready" and exit.

    python3 perfbench/ready.py WARMUP_ARGV_JSON

run.py times several of these, start to ready line, for setup_s.
"""

import json
import sys

from clicall import call_cli, import_friendlab

if __name__ == "__main__":
    cli = import_friendlab().cli
    call_cli(cli, json.loads(sys.argv[1]))
    print("ready", flush=True)
