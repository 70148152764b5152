"""The CI workflow runs the tier-1 command that ROADMAP.md states, under
a job timeout, once per push: on pushes to main and on pull requests."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ci_runs_the_roadmap_tier1_command_under_a_timeout():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    [verify] = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.findall(r"^ +run: (.*\bpytest\b.*)$", workflow, re.M) == [verify]
    # a hung test ends the job within minutes, not GitHub's 6-hour default
    [minutes] = re.findall(r"^    timeout-minutes: (\d+)$", workflow, re.M)
    assert 1 <= int(minutes) <= 10


def test_ci_runs_once_per_push_on_main_and_on_pull_requests():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    # the top-level `on:` block, up to the next top-level key
    [triggers] = re.findall(r"^on:\n((?:[ #].*\n|\n)*)", workflow, re.M)
    lines = [line for line in triggers.splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    # a push to a pull request's branch starts the pull_request job only;
    # every branch but main is left out of `push`
    assert lines == ["  push:", "    branches: [main]", "  pull_request:"]
