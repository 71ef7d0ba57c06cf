"""EFX4xx unit tests, including the acceptance-criteria mutation test:
adding a new effect to the *real* ``repro.proto.effects`` source without
teaching the *real* backends must turn into an EFX401 failure on both
``sim.cluster`` and ``net.node``."""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_source, lint_sources

REPO = Path(__file__).resolve().parents[2]

EFFECTS = "src/repro/proto/effects.py"
CLUSTER = "src/repro/sim/cluster.py"
NODE = "src/repro/net/node.py"


def codes(source: str, **kwargs) -> set[str]:
    return {f.code for f in lint_source(source, **kwargs)}


def real_sources() -> dict[str, str]:
    return {
        rel: (REPO / rel).read_text() for rel in (EFFECTS, CLUSTER, NODE)
    }


def add_effect(effects_source: str, name: str) -> str:
    """Append a new effect class and splice it into the closed union."""
    old_union = "Effect = Union[Send, Broadcast, Persist, Timer, QueryAnswered]"
    assert old_union in effects_source, "union layout changed; update the test"
    mutated = effects_source.replace(
        old_union,
        f"class {name}:\n"
        f"    pass\n"
        f"\n"
        f"\n"
        f"Effect = Union[Send, Broadcast, Persist, Timer, QueryAnswered, {name}]",
    )
    return mutated


class TestMutationOnRealTree:
    def test_shipped_backends_satisfy_the_contract(self) -> None:
        findings = lint_sources(real_sources())
        assert [f for f in findings if f.code.startswith("EFX")] == []

    def test_new_effect_without_dispatch_fails_both_backends(self) -> None:
        sources = real_sources()
        sources[EFFECTS] = add_effect(sources[EFFECTS], "Churn")
        efx = [f for f in lint_sources(sources) if f.code == "EFX401"]
        assert {f.path for f in efx} == {CLUSTER, NODE}
        assert all("Churn" in f.message for f in efx)

    def test_teaching_one_backend_still_fails_the_other(self) -> None:
        sources = real_sources()
        sources[EFFECTS] = add_effect(sources[EFFECTS], "Churn")
        sources[CLUSTER] = sources[CLUSTER].replace(
            "IGNORED_EFFECTS = (Persist, Timer, QueryAnswered)",
            "IGNORED_EFFECTS = (Persist, Timer, QueryAnswered, Churn)",
        ).replace(
            "    QueryAnswered,\n    Send,", "    QueryAnswered,\n    Churn,\n    Send,"
        )
        efx = [f for f in lint_sources(sources) if f.code == "EFX401"]
        assert {f.path for f in efx} == {NODE}


class TestEffectContract:
    UNION = (
        "from typing import Union\n"
        "class Send:\n    pass\n"
        "class Persist:\n    pass\n"
        "Effect = Union[Send, Persist]\n"
    )

    def test_undeclared_importer_is_flagged(self) -> None:
        findings = lint_sources(
            {
                "src/app/proto/effects.py": self.UNION,
                "src/app/backend.py": (
                    "from app.proto.effects import Send\n"
                    "def apply(eff, ship):\n"
                    "    if isinstance(eff, Send):\n"
                    "        ship(eff)\n"
                ),
            }
        )
        assert [(f.path, f.code) for f in findings] == [
            ("src/app/backend.py", "EFX401")
        ]
        assert "declares no effect contract" in findings[0].message

    def test_handled_but_never_dispatched(self) -> None:
        src = (
            "from typing import Union\n"
            "class Send:\n    pass\n"
            "Effect = Union[Send]\n"
            "HANDLED_EFFECTS = (Send,)\n"
            "IGNORED_EFFECTS = ()\n"
        )
        findings = lint_source(src)
        assert {f.code for f in findings} == {"EFX401"}
        assert "never dispatches" in findings[0].message

    def test_overlapping_contract_is_flagged(self) -> None:
        src = (
            "from typing import Union\n"
            "class Send:\n    pass\n"
            "class Persist:\n    pass\n"
            "Effect = Union[Send, Persist]\n"
            "HANDLED_EFFECTS = (Send, Persist)\n"
            "IGNORED_EFFECTS = (Persist,)\n"
            "def apply(eff, ship, save):\n"
            "    if isinstance(eff, Send):\n"
            "        ship(eff)\n"
            "    elif isinstance(eff, Persist):\n"
            "        save(eff)\n"
        )
        assert codes(src) == {"EFX402"}

    def test_pep604_union_is_parsed(self) -> None:
        src = (
            "class Send:\n    pass\n"
            "class Persist:\n    pass\n"
            "Effect = Send | Persist\n"
            "HANDLED_EFFECTS = (Send,)\n"
            "IGNORED_EFFECTS = ()\n"
            "def apply(eff, ship):\n"
            "    if isinstance(eff, Send):\n"
            "        ship(eff)\n"
        )
        findings = lint_source(src)
        assert {f.code for f in findings} == {"EFX401"}
        assert "Persist" in findings[0].message

    def test_no_project_mode_skips_contract_rules(self) -> None:
        bad = (REPO / "tests/lint/fixtures/bad/efx401_missing_dispatch.py").read_text()
        assert codes(bad, project=False) == set()


class TestEventDispatch:
    def test_real_core_is_event_exhaustive(self) -> None:
        sources = {
            "src/repro/proto/events.py": (REPO / "src/repro/proto/events.py").read_text(),
            "src/repro/proto/core.py": (REPO / "src/repro/proto/core.py").read_text(),
        }
        assert [f.code for f in lint_sources(sources)] == []

    def test_new_event_without_arm_fails(self) -> None:
        events = (REPO / "src/repro/proto/events.py").read_text()
        assert "Event = Union[" in events
        mutated = events.replace(
            "Event = Union[",
            "class Reconfigure:\n    pass\n\n\nEvent = Union[Reconfigure, ",
        )
        findings = lint_sources(
            {
                "src/repro/proto/events.py": mutated,
                "src/repro/proto/core.py": (
                    REPO / "src/repro/proto/core.py"
                ).read_text(),
            }
        )
        assert [f.code for f in findings] == ["EFX403"]
        assert "Reconfigure" in findings[0].message


class TestTypedEventsOnly:
    def test_dict_payload_is_flagged(self) -> None:
        src = (
            "from repro.proto.core import ProtocolCore\n"
            "def drive(core):\n"
            "    core.handle({'kind': 'sync'})\n"
        )
        assert codes(src) == {"EFX404"}

    def test_non_proto_handle_is_exempt(self) -> None:
        # `.handle()` on arbitrary objects in modules that never touch the
        # protocol package is none of EFX404's business.
        src = (
            "def drive(queue):\n"
            "    queue.handle(('job', 1))\n"
        )
        assert codes(src) == set()


class TestLinkEvents:
    EVENTS = "src/repro/proto/events.py"

    def sources(self) -> dict[str, str]:
        return {**real_sources(), self.EVENTS: (REPO / self.EVENTS).read_text()}

    def test_shipped_backends_emit_both_link_events(self) -> None:
        assert [f for f in lint_sources(self.sources()) if f.code == "EFX405"] == []

    def test_a_backend_that_never_loses_a_link_fails(self) -> None:
        sources = self.sources()
        sources[NODE] = sources[NODE].replace(".link_lost(", ".link_ignored(")
        efx = [f for f in lint_sources(sources) if f.code == "EFX405"]
        assert [f.path for f in efx] == [NODE]
        assert "LinkLost" in efx[0].message

    def test_a_backend_that_never_gains_a_link_fails(self) -> None:
        sources = self.sources()
        sources[CLUSTER] = sources[CLUSTER].replace(
            ".link_established(", ".link_ignored("
        )
        efx = [f for f in lint_sources(sources) if f.code == "EFX405"]
        assert [f.path for f in efx] == [CLUSTER]
        assert "LinkEstablished" in efx[0].message
