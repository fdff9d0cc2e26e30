# Convenience targets for the IP-leasing reproduction.

PYTHON ?= python

.PHONY: install test coverage lint check check-warm ratchet-update docs bench-e2e bench-pipeline bench-xlarge report data clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

coverage:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/ --cov=repro --cov-report=term --cov-fail-under=90

lint: check
	$(PYTHON) scripts/lint.py

check:
	PYTHONPATH=src $(PYTHON) -m repro.cli check --fail-on warning
	PYTHONPATH=src $(PYTHON) -m repro.check.ratchet compare

# Prove the warm cache path is actually exercised: run check twice and
# assert the second run reused at least one cached module.
check-warm:
	PYTHONPATH=src $(PYTHON) -m repro.cli check --fail-on never >/dev/null
	PYTHONPATH=src $(PYTHON) -m repro.cli check --fail-on never --format json --stats \
		| $(PYTHON) -c "import json,sys; d=json.load(sys.stdin); \
assert d['cache']['reused'] > 0, d.get('cache'); \
print('warm cache OK: reused', d['cache']['reused'], 'modules,', d['cache']['analyzed'], 'analyzed')"

ratchet-update:
	PYTHONPATH=src $(PYTHON) -m repro.check.ratchet update

docs:
	PYTHONPATH=src $(PYTHON) -m repro.diagnostics > docs/DIAGNOSTICS.md
	PYTHONPATH=src $(PYTHON) -m repro.check > docs/STATIC_ANALYSIS.md

# End-to-end bench (bench/run.py, dumps on disk to a served answer) on
# the small world, once per workload.  Gates on the run's "correct"
# verdict (every answer and digest checked), not its exit code: on the
# small world a busy host can leave a phase client-bound, which run.py
# flags as an invalid measurement but which says nothing about answers.
bench-e2e:
	for workload in lookup-zipf lookup-uniform lookup-churn; do \
		$(PYTHON) bench/run.py --workload $$workload --seed 1 --quick \
			| tee /dev/stderr | tail -n 1 | $(PYTHON) -c \
			"import json, sys; sys.exit(not json.load(sys.stdin)['correct'])" \
			|| exit 1; \
	done

bench-pipeline:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --out BENCH_pipeline.json

# Full internet-scale tier with the memory column; takes minutes
# (world build dominates). See PERFORMANCE.md.
bench-xlarge:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --out BENCH_pipeline.json \
		--sizes xlarge --repeats 1 --memory

report:
	PYTHONPATH=src $(PYTHON) -m repro.cli report --out REPORT.md

data:
	PYTHONPATH=src $(PYTHON) -m repro.cli generate --out data/

clean:
	rm -rf data/ .pytest_cache .repro-check-cache.json
	find . -name __pycache__ -type d -exec rm -rf {} +
