from __future__ import annotations

from pathlib import Path

import pytest

from dfscreen.corpus import EXCLUDE, INCLUDE, ReviewDataset, StudyRecord
from dfscreen.prompting import (
    PromptError,
    RenderedPrompt,
    Strategy,
    head,
    render,
    render_instances,
    static_instances,
)

GOLDEN = Path(__file__).parent / "golden"

CRITERIA = "Include randomized trials of adults.\nExclude animal studies."

TARGET = StudyRecord(
    id="t1",
    title="Aspirin for primary prevention",
    abstract="A randomized trial of aspirin in adults without prior cardiovascular disease.",
)

INSTANCES = [
    (
        StudyRecord(
            id="e1",
            title="Statin therapy in elderly patients",
            abstract="Randomized controlled trial of statins.",
        ),
        INCLUDE,
    ),
    (
        StudyRecord(
            id="e2",
            title="Aspirin toxicity in mice",
            abstract="Murine model study of aspirin dosing.",
        ),
        EXCLUDE,
    ),
    (
        StudyRecord(
            id="e3",
            title="Case report of aspirin allergy",
            abstract="Single patient case report.",
        ),
        EXCLUDE,
    ),
]


class TestStrategyTokens:
    def test_wire_values(self):
        assert Strategy.ZERO_SHOT.value == "zs"
        assert Strategy.CHAIN_OF_THOUGHT.value == "cot"
        assert Strategy.FEW_SHOT.value == "fs"
        assert Strategy.DYNAMIC_FEW_SHOT.value == "dfsl"

    def test_lookup_by_token(self):
        assert Strategy("dfsl") is Strategy.DYNAMIC_FEW_SHOT

    @pytest.mark.parametrize(
        "strategy,needs,confident",
        [
            (Strategy.ZERO_SHOT, False, False),
            (Strategy.CHAIN_OF_THOUGHT, False, False),
            (Strategy.FEW_SHOT, True, False),
            (Strategy.DYNAMIC_FEW_SHOT, True, True),
        ],
    )
    def test_capability_flags(self, strategy, needs, confident):
        assert strategy.requires_instances is needs
        assert strategy.expects_confidence is confident


class TestGoldenSnapshots:
    @pytest.mark.parametrize(
        "strategy,name,with_instances",
        [
            (Strategy.ZERO_SHOT, "prompt_zs.txt", False),
            (Strategy.CHAIN_OF_THOUGHT, "prompt_cot.txt", False),
            (Strategy.FEW_SHOT, "prompt_fs.txt", True),
            (Strategy.DYNAMIC_FEW_SHOT, "prompt_dfsl.txt", True),
        ],
    )
    def test_rendered_text_matches_snapshot(self, strategy, name, with_instances):
        instances = INSTANCES if with_instances else None
        rendered = render(head(strategy, CRITERIA, instances), TARGET)
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert rendered.text == expected

    def test_prompt_ends_with_output_cue(self):
        for strategy in Strategy:
            instances = INSTANCES if strategy.requires_instances else None
            rendered = render(head(strategy, CRITERIA, instances), TARGET)
            assert rendered.text.endswith("Output:\n")

    def test_json_output_block_verbatim(self):
        rendered = render(head(Strategy.DYNAMIC_FEW_SHOT, CRITERIA, INSTANCES), TARGET)
        block = (
            "Output Format:\n"
            "{\n"
            ' "confidence": confidence_score (0 to 1),\n'
            ' "decision": "include or exclude"\n'
            "}\n"
        )
        assert block in rendered.text

    def test_braces_in_inputs_survive(self):
        record = StudyRecord(
            id="b1",
            title="Effect of {dose} mg aspirin",
            abstract="Cohort with {n=50} participants and JSON-like {objects}.",
        )
        rendered = render(head(Strategy.DYNAMIC_FEW_SHOT, "Include {all} adults.", INSTANCES), record)
        assert "Effect of {dose} mg aspirin" in rendered.text
        assert "{n=50}" in rendered.text
        assert "Include {all} adults." in rendered.text
        assert ' "confidence": confidence_score (0 to 1),' in rendered.text

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_placeholders_in_inputs_are_not_filled(self, strategy):
        record = StudyRecord(
            id="p1",
            title="Effect of {abstract} on outcomes",
            abstract="ABSTRACT-TEXT mentions {instances} and {criteria}.",
        )
        instances = INSTANCES if strategy.requires_instances else None
        rendered = render(head(strategy, "crit with {title}", instances), record)
        assert "crit with {title}\n" in rendered.text
        assert "Title:\nEffect of {abstract} on outcomes\n" in rendered.text
        assert "Abstract:\nABSTRACT-TEXT mentions {instances} and {criteria}.\n" in rendered.text
        assert rendered.text.count("ABSTRACT-TEXT") == 1


class TestRenderInstances:
    def test_block_format(self):
        text = render_instances(INSTANCES[:2])
        assert text == (
            "Title: Statin therapy in elderly patients\n"
            "Abstract: Randomized controlled trial of statins.\n"
            "Decision: include\n"
            "\n"
            "Title: Aspirin toxicity in mice\n"
            "Abstract: Murine model study of aspirin dosing.\n"
            "Decision: exclude"
        )

    def test_unusable_label_rejected(self):
        bad = [(TARGET, None)]
        with pytest.raises(PromptError, match="no usable label"):
            render_instances(bad)

    def test_label_must_be_canonical(self):
        bad = [(TARGET, "Include")]
        with pytest.raises(PromptError, match="no usable label"):
            render_instances(bad)


class TestRenderValidation:
    def test_zero_shot_rejects_instances(self):
        with pytest.raises(PromptError, match="does not take instances"):
            render(head(Strategy.ZERO_SHOT, CRITERIA, INSTANCES), TARGET)

    def test_few_shot_requires_instances(self):
        with pytest.raises(PromptError, match="needs instances"):
            render(head(Strategy.FEW_SHOT, CRITERIA), TARGET)

    def test_dynamic_requires_instances(self):
        with pytest.raises(PromptError, match="needs instances"):
            render(head(Strategy.DYNAMIC_FEW_SHOT, CRITERIA, []), TARGET)

    def test_zero_shot_prompt_keeps_its_strategy(self):
        rendered = render(head(Strategy.ZERO_SHOT, CRITERIA), TARGET)
        assert isinstance(rendered, RenderedPrompt)
        assert rendered.strategy is Strategy.ZERO_SHOT


class TestStaticInstances:
    def make_dataset(self, order=None):
        records = [
            StudyRecord(id="r1", title="Alpha", abstract="a", gold_label=INCLUDE),
            StudyRecord(id="r2", title="Bravo", abstract="b", gold_label=INCLUDE),
            StudyRecord(id="r3", title="Charlie", abstract="c", gold_label=EXCLUDE),
            StudyRecord(id="r4", title="Delta", abstract="d", gold_label=EXCLUDE),
            StudyRecord(id="r5", title="Echo", abstract="e", gold_label=EXCLUDE),
            StudyRecord(id="r6", title="Foxtrot", abstract="f", gold_label=None),
        ]
        if order:
            records = [records[i] for i in order]
        return ReviewDataset("STAT", records)

    def test_composition(self):
        chosen = static_instances(self.make_dataset(), seed=7)
        assert [label for _, label in chosen] == [INCLUDE, EXCLUDE, EXCLUDE]
        ids = [rec.id for rec, _ in chosen]
        assert len(set(ids)) == 3
        assert chosen[0][0].gold_label == INCLUDE
        assert all(rec.gold_label == EXCLUDE for rec, _ in chosen[1:])

    def test_deterministic_per_seed(self):
        a = static_instances(self.make_dataset(), seed=7)
        b = static_instances(self.make_dataset(), seed=7)
        assert [(r.id, l) for r, l in a] == [(r.id, l) for r, l in b]

    def test_seed_changes_draw(self):
        picks = {
            tuple(r.id for r, _ in static_instances(self.make_dataset(), seed=s))
            for s in range(20)
        }
        assert len(picks) > 1

    def test_input_order_does_not_matter(self):
        a = static_instances(self.make_dataset(), seed=3)
        b = static_instances(self.make_dataset(order=[5, 4, 3, 2, 1, 0]), seed=3)
        assert [(r.id, l) for r, l in a] == [(r.id, l) for r, l in b]

    def test_unlabeled_records_never_drawn(self):
        for seed in range(30):
            chosen = static_instances(self.make_dataset(), seed=seed)
            assert all(rec.id != "r6" for rec, _ in chosen)

    def test_too_few_excludes_rejected(self):
        dataset = ReviewDataset(
            "X",
            [
                StudyRecord(id="r1", title="A", abstract="a", gold_label=INCLUDE),
                StudyRecord(id="r2", title="B", abstract="b", gold_label=EXCLUDE),
            ],
        )
        with pytest.raises(PromptError, match="needs 1 include and 2 excludes"):
            static_instances(dataset, seed=0)

    def test_no_includes_rejected(self):
        dataset = ReviewDataset(
            "X",
            [
                StudyRecord(id="r1", title="A", abstract="a", gold_label=EXCLUDE),
                StudyRecord(id="r2", title="B", abstract="b", gold_label=EXCLUDE),
            ],
        )
        with pytest.raises(PromptError, match="needs 1 include and 2 excludes"):
            static_instances(dataset, seed=0)

    def test_renderable_with_few_shot(self):
        chosen = static_instances(self.make_dataset(), seed=1)
        rendered = render(head(Strategy.FEW_SHOT, CRITERIA, chosen), TARGET)
        assert rendered.text.count("Decision:") == 3
