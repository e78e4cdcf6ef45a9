"""Prompt strategies and rendering.

Four strategies share a common skeleton: a role statement, the review's
eligibility criteria, the target title and abstract, and an output cue.
The few-shot variants splice labeled demonstration instances in between;
the dynamic variant additionally asks for JSON with a confidence score.
Templates are module constants, each split once at its ``{criteria}``,
``{title}``, ``{abstract}`` and ``{instances}`` fields and filled in one
join: literal braces in the output-format block survive untouched, and
text filled into one field is never searched for another.

A prompt is a head and a tail.  The head is everything before the
target's title: the role text, the criteria and, for the few-shot
variants, the rendered instances.  The tail is the target's title and
abstract and the text around them.  ``head`` builds a ``Head`` once,
and ``render`` fills in one target: the text is the head's plus the
tail.  A prompt's digest, the sha256 of its text, is computed when it is
read, as the head's hash state updated with the tail: the head is hashed
once, on the first digest of a prompt that starts with it, and a caller
that reads no digest (the dry run) hashes nothing.  Which targets share
a head is the caller's choice (``triage.prompter``).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .corpus import EXCLUDE, INCLUDE, ReviewDataset, StudyRecord
from .rng import SplitMix64


class PromptError(ValueError):
    pass


class Strategy(str, Enum):
    ZERO_SHOT = "zs"
    CHAIN_OF_THOUGHT = "cot"
    FEW_SHOT = "fs"
    DYNAMIC_FEW_SHOT = "dfsl"

    @property
    def requires_instances(self) -> bool:
        return self in (Strategy.FEW_SHOT, Strategy.DYNAMIC_FEW_SHOT)

    @property
    def expects_confidence(self) -> bool:
        return self is Strategy.DYNAMIC_FEW_SHOT


ZERO_SHOT_TEMPLATE = """You are a reviewer conducting abstract screening for a systematic review. Your task is to determine whether the given title and abstract should be included or excluded based on the provided criteria.

Only return the result: include or exclude.

Criteria:
{criteria}

Title:
{title}

Abstract:
{abstract}

Output:
"""

CHAIN_OF_THOUGHT_TEMPLATE = """You are a reviewer conducting abstract screening for a systematic review. Your task is to determine whether the given title and abstract should be included or excluded based on the provided criteria. Think step by step.

Only return the result: include or exclude.

Criteria:
{criteria}

Title:
{title}

Abstract:
{abstract}

Output:
"""

FEW_SHOT_TEMPLATE = """You are a reviewer conducting abstract screening for a systematic review. Your task is to determine whether the given title and abstract should be included or excluded based on the provided criteria and examples.

Only return the result: include or exclude.

Criteria:
{criteria}

Instances:
{instances}

Title:
{title}

Abstract:
{abstract}

Output:
"""

DYNAMIC_FEW_SHOT_TEMPLATE = """You are a reviewer conducting abstract screening for a systematic review. Your task is to determine whether the given title and abstract should be included or excluded based on the provided criteria and examples. Think step by step.

Return the result in JSON format.

Criteria:
{criteria}

Instances:
{instances}

Title:
{title}

Abstract:
{abstract}

Output Format:
{
 "confidence": confidence_score (0 to 1),
 "decision": "include or exclude"
}

Output:
"""

_TEMPLATES = {
    Strategy.ZERO_SHOT: ZERO_SHOT_TEMPLATE,
    Strategy.CHAIN_OF_THOUGHT: CHAIN_OF_THOUGHT_TEMPLATE,
    Strategy.FEW_SHOT: FEW_SHOT_TEMPLATE,
    Strategy.DYNAMIC_FEW_SHOT: DYNAMIC_FEW_SHOT_TEMPLATE,
}


def _split(template: str) -> tuple[list[str], str, str]:
    """(head, text between title and abstract, text after the abstract).

    The head is literal text at even places and field names at odd ones.
    """
    parts = re.split(r"\{(criteria|title|abstract|instances)\}", template)
    cut = parts.index("title")
    return parts[:cut], parts[cut + 1], parts[cut + 3]


_PARTS = {strategy: _split(template) for strategy, template in _TEMPLATES.items()}


def render_instances(instances: list[tuple[StudyRecord, str]]) -> str:
    blocks = []
    for record, label in instances:
        if label not in (INCLUDE, EXCLUDE):
            raise PromptError(
                f"instance {record.id!r} has no usable label: {label!r}"
            )
        blocks.append(
            f"Title: {record.title}\nAbstract: {record.abstract}\nDecision: {label}"
        )
    return "\n\n".join(blocks)


@dataclass(frozen=True)
class Head:
    """The prompt text before the target's title, and its sha256 state."""

    strategy: Strategy
    text: str

    @cached_property
    def hashed(self):
        """hashlib sha256 object of ``text``, updated only on copies."""
        return hashlib.sha256(self.text.encode("utf-8"))


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    strategy: Strategy
    head: Head  # the head ``text`` starts with

    @property
    def digest(self) -> str:
        """sha256 hex of ``text``: the head's hash state updated with the tail.

        Computed at each read, so a caller that needs it twice keeps it.
        """
        digest = self.head.hashed.copy()
        digest.update(self.text[len(self.head.text):].encode("utf-8"))
        return digest.hexdigest()


def head(
    strategy: Strategy,
    criteria: str,
    instances: list[tuple[StudyRecord, str]] | None = None,
) -> Head:
    """The head every target rendered with these instances shares."""
    values = {"criteria": criteria}
    if strategy.requires_instances:
        if not instances:
            raise PromptError(f"strategy {strategy.value} needs instances")
        values["instances"] = render_instances(instances)
    elif instances:
        raise PromptError(f"strategy {strategy.value} does not take instances")
    parts = _PARTS[strategy][0][:]
    parts[1::2] = [values[name] for name in parts[1::2]]
    text = "".join(parts)
    return Head(strategy, text)


def render(head: Head, record: StudyRecord) -> RenderedPrompt:
    """The prompt for one target record: ``head`` and the record's tail."""
    _, between, after = _PARTS[head.strategy]
    return RenderedPrompt(f"{head.text}{record.title}{between}{record.abstract}{after}",
                          head.strategy, head)


def static_instances(
    dataset: ReviewDataset, seed: int
) -> list[tuple[StudyRecord, str]]:
    """Fixed demonstration set for the static few-shot baseline.

    One include and two excludes drawn uniformly from the labeled
    records, the same for every target of the review.  Records are
    sorted by id before the draw so the result does not depend on
    input file order.
    """
    includes = sorted(
        (r for r in dataset.records if r.gold_label == INCLUDE), key=lambda r: r.id
    )
    excludes = sorted(
        (r for r in dataset.records if r.gold_label == EXCLUDE), key=lambda r: r.id
    )
    if len(includes) < 1 or len(excludes) < 2:
        raise PromptError(
            f"static few-shot needs 1 include and 2 excludes, have "
            f"{len(includes)} and {len(excludes)}"
        )
    rng = SplitMix64(seed)
    inc = includes[rng.randrange(len(includes))]
    i, j = rng.sample_indices(len(excludes), 2)
    return [(inc, INCLUDE), (excludes[i], EXCLUDE), (excludes[j], EXCLUDE)]
