"""What a fresh `catchup` process pays before its first step.

Timed from outside as one process for setup_s: import the CLI, then build
the model and the schedule of every config named on the command line
through the public constructors.  Run with `src` on PYTHONPATH.
"""

import json
import sys

import catchup.cli  # noqa: F401  (the import is part of what is timed)
from catchup.models import named_model_from_config
from catchup.operators import model_from_config
from catchup.scheme import PowerOfStep, Uniform, make_schedule

for path in sys.argv[1:]:
    with open(path) as fh:
        cfg = json.load(fh)
    spec = cfg["model"]
    model = named_model_from_config(spec) if "model" in spec else model_from_config(spec)
    mu = cfg["schedule"]["mu0"] if "schedule" in cfg else cfg["study"]["levels"][-1]
    errors = cfg.get("errors")
    make_schedule(cfg["T"], Uniform(mu),
                  PowerOfStep(errors["eps0"], errors["beta"]) if errors else None)
