"""Templates and surface realization of reasoning trees.

A template is a sentence pattern with typed slots; filling it against a
reasoning tree yields an expression record carrying both the rendered text
and the token sequence with per-token roles.  Roles make the text
reconstructible and support the bias probes (word shuffling, dropping
everything but nouns and adjectives) without re-parsing any text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from typing import IO, Mapping, Sequence

from .errors import SchemaViolation, SlotMismatch
from .reasoning import (
    EDGE_RELATION,
    SAME_ATTRIBUTE_CATEGORIES,
    LogicForm,
    ReasoningTree,
    compose,
    parse_and_or,
    parse_chain,
    parse_not,
    parse_order,
    parse_same,
    tree_from_jsonable,
    tree_to_jsonable,
)
from .scene_graph import SceneGraph, SynonymTable, box_record
from .util import load_json, ordinal_word


class TokenRole(str, Enum):
    """What a surface token contributes to the expression's meaning."""

    OBJECT_NOUN = "object-noun"
    ATTRIBUTE = "attribute"
    RELATION = "relation"
    ORDINAL = "ordinal"
    DIRECTION = "direction"
    FUNCTION = "function-word"


Token = tuple[str, TokenRole]

# Surface word for each same-attribute category ("colour" renders as "color").
ATTRIBUTE_CATEGORY_SURFACE = {"colour": "color"}
_CATEGORY_ALIASES = {"color": "colour"}

_SLOT_RE = re.compile(r"<(att[0-2]|natt0|obj[0-2]|rel[01]|idx|dir|cat)(:and)?>")

_STRUCTURAL_SLOTS = ("obj0", "obj1", "obj2", "rel0", "rel1", "idx", "dir", "cat")
_ATTRIBUTE_SLOTS = ("att0", "att1", "att2", "natt0")


@dataclass(frozen=True)
class _Part:
    """One parsed template element: a literal word or a slot reference."""

    kind: str  # "word" | "slot"
    value: str
    and_join: bool = False


@dataclass
class Template:
    """Sentence pattern for one logic form.

    ``requires`` lists slots that must be non-empty in the tree (attribute
    slots embedded in constructions like "that is <att0:and>" cannot collapse
    without leaving broken grammar behind).  ``only_index`` restricts an
    order-form pattern to a specific rank, which lets a pattern spell the
    rank implicitly ("the cat on the left") without losing faithfulness.
    """

    form: LogicForm
    pattern: str
    requires: tuple[str, ...] = ()
    only_index: int | None = None
    parts: tuple[_Part, ...] = field(init=False, repr=False)
    slots: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.pattern.endswith("."):
            raise SchemaViolation(f"template pattern must end with a period: {self.pattern!r}")
        body = self.pattern[:-1].strip()
        parts: list[_Part] = []
        slots: set[str] = set()
        pos = 0
        for m in _SLOT_RE.finditer(body):
            for word in body[pos:m.start()].split():
                parts.append(_Part("word", word))
            name = m.group(1)
            slots.add(name)
            parts.append(_Part("slot", name, and_join=m.group(2) is not None))
            pos = m.end()
        for word in body[pos:].split():
            parts.append(_Part("word", word))
        leftover = re.search(r"<[^>]*>", "".join(p.value for p in parts if p.kind == "word"))
        if leftover:
            raise SchemaViolation(f"unknown slot in template pattern: {self.pattern!r}")
        for req in self.requires:
            if req not in slots:
                raise SchemaViolation(
                    f"template requires slot {req!r} absent from its pattern: {self.pattern!r}"
                )
        self.parts = tuple(parts)
        self.slots = frozenset(slots)


def load_templates(source: IO) -> tuple[Template, ...]:
    """Read a template file: a JSON list of {form, pattern, requires?, only_index?}."""
    data = load_json(source, "template file")
    if not isinstance(data, list) or not data:
        raise SchemaViolation("template file must be a non-empty JSON list")
    templates = []
    for record in data:
        if not isinstance(record, dict) or "form" not in record or "pattern" not in record:
            raise SchemaViolation(f"bad template record: {record!r}")
        try:
            form = LogicForm(record["form"])
        except ValueError as exc:
            raise SchemaViolation(f"unknown logic form {record['form']!r}") from exc
        templates.append(
            Template(
                form=form,
                pattern=record["pattern"],
                requires=tuple(record.get("requires", ())),
                only_index=record.get("only_index"),
            )
        )
    return tuple(templates)


def default_templates() -> tuple[Template, ...]:
    with resources.files("refsynth.data").joinpath("templates.json").open("rb") as handle:
        return load_templates(handle)


def load_attribute_lexicon(source: IO) -> dict[str, str]:
    """Read the attribute value -> attribute category map."""
    data = load_json(source, "attribute lexicon")
    if not isinstance(data, dict):
        raise SchemaViolation("attribute lexicon must be a JSON object")
    lexicon: dict[str, str] = {}
    for value, category in data.items():
        if not isinstance(category, str):
            raise SchemaViolation(
                f"attribute {value!r} must map to a category string, got {category!r}"
            )
        category = _CATEGORY_ALIASES.get(category, category)
        if category not in SAME_ATTRIBUTE_CATEGORIES:
            raise SchemaViolation(
                f"attribute {value!r} maps to unknown category {category!r}"
            )
        lexicon[value] = category
    return lexicon


def default_attribute_lexicon() -> dict[str, str]:
    with resources.files("refsynth.data").joinpath("attribute_categories.json").open("rb") as handle:
        return load_attribute_lexicon(handle)


@dataclass
class ExpressionRecord:
    """A rendered referring expression tied to its reasoning tree and target."""

    expr_id: str
    text: str
    tokens: tuple[Token, ...]
    form: LogicForm
    tree: ReasoningTree
    image_id: str
    target_id: str
    target_box: dict | None

    @property
    def word_count(self) -> int:
        return len(self.tokens)

    def to_jsonable(self) -> dict:
        return {
            "expr_id": self.expr_id,
            "text": self.text,
            "tokens": [[surface, role.value] for surface, role in self.tokens],
            "form": self.form.value,
            "tree": tree_to_jsonable(self.tree),
            "image_id": self.image_id,
            "target_id": self.target_id,
            "target_box": self.target_box,
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "ExpressionRecord":
        if not isinstance(data, Mapping):
            raise SchemaViolation(f"expression record must be an object, got {type(data).__name__}")
        for key in ("expr_id", "text", "tokens", "form", "tree", "image_id", "target_id"):
            if key not in data:
                raise SchemaViolation(f"expression record missing {key!r}")
        for key in ("expr_id", "text", "image_id", "target_id"):
            if not isinstance(data[key], str):
                raise SchemaViolation(f"expression record {key!r} must be a string, got {data[key]!r}")
        try:
            form = LogicForm(data["form"])
            tokens = tuple((surface, TokenRole(role)) for surface, role in data["tokens"])
        except (ValueError, TypeError) as exc:
            raise SchemaViolation(f"bad expression record: {exc}") from exc
        if not all(isinstance(surface, str) for surface, _ in tokens):
            raise SchemaViolation(f"token surfaces must be strings, got {data['tokens']!r}")
        tree = tree_from_jsonable(data["tree"])
        if tree.form is not form:
            raise SchemaViolation(f"record form {form.value!r} differs from its tree's form {tree.form.value!r}")
        box = data.get("target_box")
        return cls(
            expr_id=data["expr_id"],
            text=data["text"],
            tokens=tokens,
            form=form,
            tree=tree,
            image_id=data["image_id"],
            target_id=data["target_id"],
            target_box=None if box is None else box_record(box),
        )


def render_text(tokens: Sequence[Token]) -> str:
    """Join token surfaces with single spaces, sentence-case, terminal period."""
    if not tokens:
        return ""
    joined = " ".join(surface for surface, _ in tokens)
    return joined[0].upper() + joined[1:] + "."


def _tree_bindings(tree: ReasoningTree) -> dict[str, object]:
    """Slot name -> content drawn from the tree."""
    bindings: dict[str, object] = {
        "obj0": tree.root.category,
        "att0": tree.root.attributes,
        "natt0": tree.root.negated_attributes,
    }
    if tree.root.order_spec is not None:
        bindings["idx"] = tree.root.order_spec.index
        bindings["dir"] = tree.root.order_spec.direction
    children = list(tree.edges)
    if tree.chain_extension is not None:
        children.append(tree.chain_extension)
    for i, edge in enumerate(children, start=1):
        bindings[f"obj{i}"] = edge.child.category
        bindings[f"att{i}"] = edge.child.attributes
        if edge.kind == EDGE_RELATION:
            bindings[f"rel{i - 1}"] = edge.predicate
        else:
            bindings["cat"] = edge.category
    return bindings


def _substitute(term: str, synonyms: SynonymTable, rng: random.Random, probability: float) -> str:
    alternatives = synonyms.alternatives(term)
    if alternatives and probability > 0 and rng.random() < probability:
        return rng.choice(alternatives)
    return term


def _emit(term: str, role: TokenRole, out: list[Token]) -> None:
    for word in term.split():
        out.append((word, role))


def fill(
    template: Template,
    tree: ReasoningTree,
    synonyms: SynonymTable,
    rng: random.Random,
    *,
    synonym_probability: float = 0.0,
    expr_id: str = "",
    image_id: str = "",
    target_id: str = "",
    target_box: dict | None = None,
) -> ExpressionRecord:
    """Render a tree through a template into an expression record.

    Content terms (category nouns, attribute values, relation predicates) may
    each be swapped for a listed synonym with ``synonym_probability``.  Empty
    attribute slots collapse without leaving double spaces.  Raises
    SlotMismatch when the pattern references structure the tree lacks.
    """
    if template.form is not tree.form:
        raise SlotMismatch(
            f"template for form {template.form.value!r} cannot render a {tree.form.value!r} tree"
        )
    bindings = _tree_bindings(tree)
    tokens: list[Token] = []
    for part in template.parts:
        if part.kind == "word":
            tokens.append((part.value, TokenRole.FUNCTION))
            continue
        name = part.value
        if name in _ATTRIBUTE_SLOTS:
            values = bindings.get(name, ())
            assert isinstance(values, tuple)
            for i, value in enumerate(values):
                if part.and_join and i > 0:
                    tokens.append(("and", TokenRole.FUNCTION))
                _emit(_substitute(value, synonyms, rng, synonym_probability),
                      TokenRole.ATTRIBUTE, tokens)
            continue
        if name not in bindings:
            raise SlotMismatch(f"tree has no binding for slot {name!r}")
        value = bindings[name]
        if name.startswith("obj"):
            _emit(_substitute(str(value), synonyms, rng, synonym_probability),
                  TokenRole.OBJECT_NOUN, tokens)
        elif name.startswith("rel"):
            _emit(_substitute(str(value), synonyms, rng, synonym_probability),
                  TokenRole.RELATION, tokens)
        elif name == "idx":
            _emit(ordinal_word(int(str(value))), TokenRole.ORDINAL, tokens)
        elif name == "dir":
            _emit(str(value), TokenRole.DIRECTION, tokens)
        elif name == "cat":
            surface = ATTRIBUTE_CATEGORY_SURFACE.get(str(value), str(value))
            _emit(surface, TokenRole.RELATION, tokens)
    token_tuple = tuple(tokens)
    return ExpressionRecord(
        expr_id=expr_id,
        text=render_text(token_tuple),
        tokens=token_tuple,
        form=tree.form,
        tree=tree,
        image_id=image_id,
        target_id=target_id,
        target_box=target_box,
    )


def template_is_eligible(template: Template, tree: ReasoningTree) -> bool:
    """Can this template render this tree without dropping any content?

    Structural slots must line up exactly (a pattern with a relation slot
    needs a tree with that edge, and vice versa); attribute slots may be
    present and collapse, but a non-empty attribute list with no slot to land
    in makes the template ineligible; ``requires`` entries must be non-empty.
    """
    if template.form is not tree.form:
        return False
    bindings = _tree_bindings(tree)
    for slot in _STRUCTURAL_SLOTS:
        in_tree = slot in bindings
        in_pattern = slot in template.slots
        if slot == "idx" and in_tree and not in_pattern:
            # A pattern may spell the rank implicitly, but only for the rank
            # it was written for.
            if template.only_index is not None and template.only_index == bindings["idx"]:
                continue
            return False
        if in_tree != in_pattern:
            return False
    if template.only_index is not None and bindings.get("idx") != template.only_index:
        return False
    for slot in _ATTRIBUTE_SLOTS:
        values = bindings.get(slot, ())
        if values and slot not in template.slots:
            return False
        if slot in template.requires and not values:
            return False
    return True


def select_template(
    templates: Sequence[Template],
    tree: ReasoningTree,
    rng: random.Random,
) -> Template | None:
    eligible = [t for t in templates if template_is_eligible(t, tree)]
    if not eligible:
        return None
    return rng.choice(eligible)


@dataclass
class GenerationConfig:
    """Everything expression synthesis needs beyond the graph and the rng."""

    templates: tuple[Template, ...]
    synonyms: SynonymTable
    lexicon: Mapping[str, str]
    max_per_region: int = 2
    synonym_probability: float = 0.3
    compose_probability: float = 0.5
    parse_budget: int = 16
    relation_weights: Mapping[str, float] | None = None


def _parse_form(
    form: LogicForm,
    graph: SceneGraph,
    target: str,
    rng: random.Random,
    config: GenerationConfig,
) -> ReasoningTree | None:
    weights = config.relation_weights
    budget = config.parse_budget
    if form is LogicForm.CHAIN:
        depth = rng.choice((1, 2))
        return parse_chain(graph, target, depth, rng, weights=weights, budget=budget)
    if form in (LogicForm.AND, LogicForm.OR):
        return parse_and_or(graph, target, form.value, rng, weights=weights, budget=budget)
    if form is LogicForm.ORDER:
        return parse_order(graph, target, rng, weights=weights)
    if form is LogicForm.SAME:
        return parse_same(graph, target, rng, lexicon=config.lexicon, budget=budget)
    return parse_not(graph, target, rng)


def generate(
    graph: SceneGraph,
    target: str,
    config: GenerationConfig,
    rng: random.Random,
) -> list[ExpressionRecord]:
    """Synthesize up to ``max_per_region`` unambiguous expressions for a target.

    Forms are attempted in a seed-shuffled order; each successful parse may be
    extended by one composition step, then rendered through an eligible
    template.  Every returned record's tree matches exactly the target in its
    own image (guaranteed by the parsers and rechecked by their contract).
    """
    records: list[ExpressionRecord] = []
    order = list(LogicForm)
    rng.shuffle(order)
    box = graph.node(target).box.to_jsonable()
    for form in order:
        if len(records) >= config.max_per_region:
            break
        tree = _parse_form(form, graph, target, rng, config)
        if tree is None:
            continue
        if rng.random() < config.compose_probability:
            composed = compose(tree, graph, target, rng,
                               weights=config.relation_weights, lexicon=config.lexicon)
            if composed is not None:
                tree = composed
        template = select_template(config.templates, tree, rng)
        if template is None:
            continue
        records.append(
            fill(
                template,
                tree,
                config.synonyms,
                rng,
                synonym_probability=config.synonym_probability,
                expr_id=f"{graph.image_id}:{target}:{form.value}",
                image_id=graph.image_id,
                target_id=target,
                target_box=box,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Bias probes


def shuffle_words(record: ExpressionRecord, rng: random.Random) -> ExpressionRecord:
    """Uniformly permute the tokens; roles travel with their words."""
    tokens = list(record.tokens)
    rng.shuffle(tokens)
    shuffled = tuple(tokens)
    return replace(record, tokens=shuffled, text=render_text(shuffled))


def keep_nouns_adjectives(record: ExpressionRecord) -> ExpressionRecord:
    """Drop everything but object nouns and attribute words, preserving order."""
    kept = tuple(
        (surface, role)
        for surface, role in record.tokens
        if role in (TokenRole.OBJECT_NOUN, TokenRole.ATTRIBUTE)
    )
    return replace(record, tokens=kept, text=render_text(kept))
