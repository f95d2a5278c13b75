"""The reach pin: no library line goes unreached by the fast scenarios unless it is allowed here.

``tools/oracle_coverage.py``'s ``unreached`` runs in a fresh interpreter, so
the package's import-time lines are traced as the tool traces them.  The
scenarios are the six bundled ones other than the two waves, plus
``flat_boosted_wave`` cut to 20 steps.  A line is keyed by its file, the
function around it and its stripped source, with a count, not by its number,
so an edit elsewhere in a file moves nothing.  The allowlist may only
shrink: a line that a change leaves unreached needs a scenario or a test
that reaches it, not an entry here.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from diracfock import BUNDLED

ROOT = Path(__file__).resolve().parent.parent
FAST = ("cgs_identities", "flat_identities", "flat_pairing", "fock_m6", "static_diagonal_connection", "unstable_dt")

ALLOWED = Counter([
    ('cli.py', 'main', 'for name in scenario_names():'),
    ('cli.py', 'main', 'print(name)'),
    ('cli.py', 'main', 'return 0'),
    ('cli.py', 'main', 'parser.print_usage(sys.stderr)'),
    ('cli.py', 'main', 'return 2'),
    ('cli.py', 'main', 'suites = tuple(p for p in args.suite.replace(",", " ").split() if p)'),
    ('cli.py', '', 'sys.exit(main())'),
    ('config.py', 'ScenarioConfig.with_overrides', 'cfg = replace(cfg, suites=suites)'),
    ('config.py', 'ScenarioConfig.with_overrides', 'cfg = replace(cfg, seed=seed)'),
    ('config.py', '_number.parse', 'kind = "numbers" if cast is float else "integers"'),
    ('config.py', 'parse_config', 'tols = dict(DEFAULT_TOLERANCES)'),
    ('config.py', 'parse_config', 'for key, raw in entries.items():'),
    ('config.py', 'parse_config', 'if key not in tols:'),
    ('config.py', 'parse_config', 'tols[key] = _number(float)(raw, "tolerance %s" % key)'),
    ('config.py', 'parse_config', 'fields["tolerances"] = tols'),
    ('config.py', '_packet_center_width', 'center = cfg.origin[0] + 0.5 * cfg.lengths[0]'),
    ('config.py', '_packet_center_width', 'width = cfg.lengths[0] / 16.0'),
    ('dynamics.py', '_operator.rhs', 'np.multiply(dr, a, out=dr)'),
    ('dynamics.py', '_operator.rhs', 'np.multiply(split[0], split[1], out=split[0])'),
    ('dynamics.py', '_operator.rhs', 'np.add(views[1], _central(*split[2:]), out=views[1])'),
    ('fock.py', 'FockVector.is_zero', 'return not self._terms'),
    ('fock.py', 'FockVector.__repr__', 'parts = ", ".join('),
    ('fock.py', 'FockVector.__repr__', 'f"{list(indices_from_occupation(s))}: {c:.6g}" for s, c in sorted(self._terms.items())'),
    ('fock.py', 'FockVector.__repr__', 'return f"FockVector({{{parts}}})"'),
    ('fock.py', 'multiparticle_inner', 'return complex(sum(u[s].conjugate() * c for s, c in v.items() if s in u))'),
    ('fock.py', 'parse_fock_vector', 'continue'),
    ('geometry.py', '_nabla_blocks', 'ds[q] += np.moveaxis(np.einsum("xyzab,txyzb->txyza", a, v[s:e]), -1, 1)'),
    ('pairing.py', 'sample_on_slice', 'return _slice_samples([psi.values], psi.chart.axes[0], [s])[0]'),
    ('pairing.py', 'flux', 'return float(_slice_integral(_slice_samples([j.values], j.chart.axes[0], [s])[0], s))'),
    ('scenarios.py', 'scenario_names', 'return tuple(sorted(BUNDLED))'),
    ('stencils.py', 'differentiate', 'return np.zeros_like(values)'),
])


def test_the_fast_scenarios_reach_every_line_off_the_allowlist(tmp_path):
    wave = tmp_path / "flat_boosted_wave_20.ini"
    wave.write_text(BUNDLED["flat_boosted_wave"].replace("t_span = 5.0", "t_span = 0.1").replace("steps = 1000", "steps = 20"))
    script = "import json, sys; sys.path.insert(0, sys.argv[1]); import oracle_coverage; " \
             "print(json.dumps(oracle_coverage.unreached(sys.argv[2:])))"
    run = subprocess.run([sys.executable, "-c", script, str(ROOT / "tools"), *FAST, str(wave)],
                         capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert run.returncode == 0, run.stderr
    exits, _, lines = json.loads(run.stdout)
    assert [code for _, code in exits] == [0, 0, 0, 0, 0, 3, 0]
    found = Counter((Path(path).name, scope, source) for path, _, scope, source, in_error in lines if not in_error)
    assert not found - ALLOWED, sorted(found - ALLOWED)
