"""Parse and validate the PDDL subset used by the embedded game corpus.

Supported: `:strips`, `:typing`, `:equality`, `:conditional-effects`,
`:universal-preconditions`, `:negative-preconditions`, `either` types,
domain `:constants`, and `;` comments. Everything else (numeric fluents,
durative actions, derived predicates, ...) is rejected with an
`unsupported-construct` diagnostic.

Grammar notes enforced here:
  * `or` may appear in preconditions and goals only;
  * `when` may appear in effects only and cannot nest inside another `when`;
  * effect leaves are literals (atoms or negated atoms);
  * every variable must be bound by the action parameters or an enclosing
    `forall`;
  * a domain's `:types` and `:constants`, a problem's `:domain`, `:objects`
    and `:goal`, and each keyword of an action appear at most once
    (`:requirements`, `:predicates` and `:init` sections merge), and every
    `- TYPE` follows a name;
  * each type, constant, predicate and parameter is declared once, and no
    type is its own ancestor; a type named but never declared is an
    implicit type.

A domain is read and parsed one top-level form at a time: the header
(`(domain NAME)` and every section but `:action`) first, then each action
against the header's predicates and constants. The same section and action
code serves a text read whole, which is how a text whose outer shape the
form split does not recognise is read. A caller that parses many texts
sharing forms, such as a search run's evaluator, passes a dict that keeps the
forms parsed without a diagnostic, so an unchanged form is read once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import errors as E
from .ast import (
    ROOT_TYPE,
    ActionSchema,
    And,
    Atom,
    DomainAst,
    Eq,
    Forall,
    Formula,
    LinkedTask,
    Not,
    Or,
    PredicateDecl,
    ProblemAst,
    TypedName,
    TypeRef,
    When,
    fits_type,
    object_types,
    type_ancestors,
    walk,
)
from .printer import _type_str
from .reader import SAtom, SList, SNode, read_one, split_define

SUPPORTED_REQUIREMENTS = frozenset(
    {
        ":strips",
        ":typing",
        ":equality",
        ":conditional-effects",
        ":universal-preconditions",
        ":negative-preconditions",
    }
)


class _Builder:
    """The diagnostics one parse collects."""

    def __init__(self) -> None:
        self.diagnostics: list = []

    def diag(self, code: str, message: str, node: SNode | None = None) -> None:
        line = node.line if node is not None else 0
        col = node.col if node is not None else 0
        self.diagnostics.append(E.Diagnostic(code, message, line, col))

    def fail_if_dirty(self) -> None:
        if self.diagnostics:
            raise E.PddlError(self.diagnostics)


def _expect_atom(b: _Builder, node: SNode, what: str) -> str | None:
    if isinstance(node, SAtom):
        return node.text
    b.diag(E.SYNTAX, f"expected {what}", node)
    return None


def _type_ref(b: _Builder, node: SNode) -> TypeRef:
    if isinstance(node, SAtom):
        return node.text
    if node.items and isinstance(node.items[0], SAtom) and node.items[0].text == "either":
        members = []
        for item in node.items[1:]:
            name = _expect_atom(b, item, "type name inside (either ...)")
            if name is not None:
                members.append(name)
        if members:
            return tuple(members)
        b.diag(E.SYNTAX, "(either ...) needs at least one type", node)
        return ROOT_TYPE
    head = node.items[0].text if node.items and isinstance(node.items[0], SAtom) else "()"
    b.diag(E.UNSUPPORTED, f"'{head}' is not a supported type expression", node)
    return ROOT_TYPE


def _typed_names(
    b: _Builder, items: tuple, *, variables: bool, where: str, declares: str, repeat: str = E.DUPLICATE_NAME
) -> tuple:
    """Parse a PDDL typed list ``n1 n2 - t n3 ...`` into TypedName entries.
    Each name in the list declares a `declares`, such as "type", and is
    declared once; a repeat is reported where it stands, under the
    diagnostic code `repeat`, and kept."""
    out: list[TypedName] = []
    pending: list[tuple[str, SNode]] = []
    declared: set = set()
    i = 0
    while i < len(items):
        node = items[i]
        if isinstance(node, SAtom) and node.text == "-":
            i += 1
            if i >= len(items):
                b.diag(E.SYNTAX, f"type expected after '-' in {where}", node)
                break
            if not pending:
                b.diag(E.SYNTAX, f"'-' follows no name in {where}", node)
            tref = _type_ref(b, items[i])
            out.extend(TypedName(name, tref) for name, _ in pending)
            pending = []
        elif isinstance(node, SAtom):
            name = node.text
            if variables and not name.startswith("?"):
                b.diag(E.SYNTAX, f"variable expected in {where}, got '{name}'", node)
            elif not variables and name.startswith("?"):
                b.diag(E.SYNTAX, f"name expected in {where}, got variable '{name}'", node)
            else:
                _repeated(b, declared, name, node, f"{declares} '{name}'", repeat)
                pending.append((name, node))
        else:
            b.diag(E.SYNTAX, f"name expected in {where}", node)
        i += 1
    out.extend(TypedName(name, ROOT_TYPE) for name, _ in pending)
    return tuple(out)


# -- formulas -----------------------------------------------------------------

_NUMERIC_HEADS = {"increase", "decrease", "assign", "scale-up", "scale-down"}
_NOT_INIT_HEADS = {"not", "=", *_NUMERIC_HEADS}


@dataclass
class _FormulaCtx:
    b: _Builder
    kind: str  # "pre" | "eff" | "goal" | "init"
    predicates: dict | None  # name -> PredicateDecl, when known
    constants: frozenset | None  # None in a problem, where objects are checked at link
    bound: frozenset | None  # the bound variables; None checks none
    owner: str  # action or problem name, for messages
    in_when: bool = False


def _check_term(ctx: _FormulaCtx, name: str, node: SNode) -> None:
    if name.startswith("?"):
        if ctx.bound is not None and name not in ctx.bound:
            if ctx.kind == "init":
                ctx.b.diag(E.SYNTAX, f"init atom must be ground, found '{name}'", node)
            elif ctx.kind == "goal":
                ctx.b.diag(E.UNBOUND_VARIABLE, f"free variable '{name}' in goal", node)
            else:
                ctx.b.diag(
                    E.UNBOUND_VARIABLE,
                    f"variable '{name}' not bound in action '{ctx.owner}'",
                    node,
                )
    elif ctx.constants is not None and name not in ctx.constants:
        ctx.b.diag(
            E.UNDECLARED_CONSTANT,
            f"'{name}' is not a declared constant (action '{ctx.owner}')",
            node,
        )


def _atom(ctx: _FormulaCtx, node: SList) -> Atom:
    head = node.items[0].text  # caller guarantees an SAtom head
    args = []
    for item in node.items[1:]:
        name = _expect_atom(ctx.b, item, "atom argument")
        if name is None:
            continue
        _check_term(ctx, name, item)
        args.append(name)
    if ctx.predicates is not None:
        decl = ctx.predicates.get(head)
        if decl is None:
            ctx.b.diag(E.UNDECLARED_PREDICATE, f"predicate '{head}' is not declared", node)
        elif decl.arity != len(args):
            ctx.b.diag(
                E.ARITY_MISMATCH,
                f"predicate '{head}' expects {decl.arity} arguments, got {len(args)}",
                node,
            )
    return Atom(head, tuple(args))


def _formula(ctx: _FormulaCtx, node: SNode) -> Formula:
    if isinstance(node, SAtom):
        ctx.b.diag(E.SYNTAX, f"expected a formula, got '{node.text}'", node)
        return And()
    if not node.items:
        ctx.b.diag(E.SYNTAX, "expected a formula, got '()'", node)
        return And()
    head_node = node.items[0]
    if not isinstance(head_node, SAtom):
        ctx.b.diag(E.SYNTAX, "formula head must be a symbol", node)
        return And()
    head = head_node.text

    if head == "and":
        return And(tuple(_formula(ctx, item) for item in node.items[1:]))

    if head == "or":
        if ctx.kind == "eff":
            ctx.b.diag(E.UNSUPPORTED, "'or' is not allowed in effects", node)
        return Or(tuple(_formula(ctx, item) for item in node.items[1:]))

    if head == "not":
        if len(node.items) != 2:
            ctx.b.diag(E.SYNTAX, "'not' takes exactly one formula", node)
            return And()
        body = _formula(ctx, node.items[1])
        if ctx.kind == "eff" and not isinstance(body, Atom):
            ctx.b.diag(E.UNSUPPORTED, "effects may negate atoms only", node)
        return Not(body)

    if head == "forall":
        if len(node.items) != 3 or not isinstance(node.items[1], SList):
            ctx.b.diag(E.SYNTAX, "'forall' takes (vars) and one body formula", node)
            return And()
        vars_ = _typed_names(ctx.b, node.items[1].items, variables=True, where="forall", declares="variable")
        inner = ctx if ctx.bound is None else replace(ctx, bound=ctx.bound | frozenset(v.name for v in vars_))
        return Forall(vars_, _formula(inner, node.items[2]))

    if head == "when":
        if ctx.kind != "eff":
            ctx.b.diag(E.UNSUPPORTED, "'when' is only allowed in effects", node)
            return And()
        if ctx.in_when:
            ctx.b.diag(E.UNSUPPORTED, "'when' cannot nest inside another 'when'", node)
            return And()
        if len(node.items) != 3:
            ctx.b.diag(E.SYNTAX, "'when' takes a condition and an effect", node)
            return And()
        return When(
            _formula(replace(ctx, kind="pre"), node.items[1]),
            _formula(replace(ctx, in_when=True), node.items[2]),
        )

    if head == "=":
        if ctx.kind == "eff":
            ctx.b.diag(E.UNSUPPORTED, "'=' is not allowed in effects", node)
            return And()
        if len(node.items) != 3:
            ctx.b.diag(E.SYNTAX, "'=' takes exactly two arguments", node)
            return And()
        terms = []
        for item in node.items[1:]:
            name = _expect_atom(ctx.b, item, "'=' argument")
            if name is None:
                return And()
            _check_term(ctx, name, item)
            terms.append(name)
        return Eq(terms[0], terms[1])

    if head in _NUMERIC_HEADS or head in {"exists", "imply", "preference"}:
        ctx.b.diag(E.UNSUPPORTED, f"'{head}' is outside the supported subset", node)
        return And()

    return _atom(ctx, node)


# -- documents ----------------------------------------------------------------


def _header(b: _Builder, root: SNode, kind: str) -> tuple:
    """NAME and the sections of `(define (KIND NAME) ...)`; raises on any
    other shape."""
    items = root.items if isinstance(root, SList) else ()
    if (
        len(items) < 2
        or not isinstance(items[0], SAtom)
        or items[0].text != "define"
        or not isinstance(items[1], SList)
        or len(items[1].items) != 2
        or not isinstance(items[1].items[0], SAtom)
        or items[1].items[0].text != kind
        or not isinstance(items[1].items[1], SAtom)
    ):
        b.diag(E.SYNTAX, f"expected (define ({kind} NAME) ...)", root)
        b.fail_if_dirty()
    return items[1].items[1].text, items[2:]


def _sections(b: _Builder, sections: tuple):
    """(head, section) for each `(:head ...)` form, in order. A malformed
    form is reported when the walk reaches it, so diagnostics keep document
    order."""
    for section in sections:
        if not isinstance(section, SList) or not section.items or not isinstance(section.items[0], SAtom):
            b.diag(E.SYNTAX, "expected a (:section ...) form", section)
            continue
        yield section.items[0].text, section


def _repeated(b: _Builder, met: set, key: str, node: SNode, what: str, code: str = E.DUPLICATE_NAME) -> bool:
    """Whether `key`, a name or section that may appear once, is in `met`,
    to which it is added. A repeat is reported at `node` as "duplicate
    `what`" under `code`; the caller chooses to skip it or keep it."""
    if key in met:
        b.diag(code, f"duplicate {what}", node)
        return True
    met.add(key)
    return False


def _requirements(b: _Builder, section: SList) -> list[str]:
    """The supported flags of a `(:requirements ...)` section; others are
    reported."""
    flags = []
    for item in section.items[1:]:
        flag = _expect_atom(b, item, "requirement flag")
        if flag is None:
            continue
        if flag not in SUPPORTED_REQUIREMENTS:
            b.diag(E.UNSUPPORTED, f"requirement '{flag}' is not supported", item)
        else:
            flags.append(flag)
    return flags


# -- domains ------------------------------------------------------------------


def parse_domain(text: str, forms: dict | None = None) -> DomainAst:
    """Parse a domain; raises PddlError carrying all collected diagnostics.

    The text is read one top-level form at a time (`split_define`), and a
    text of any other shape is read whole, so every syntax error keeps the
    message and position a whole read gives. `forms`, when given, keeps
    what earlier calls parsed without a diagnostic: the header (the
    `(domain NAME)` form and every section but `:action`) under the tuple
    of its form texts, and each action under (that tuple, its form text).
    It may also hold the forms `file_forms` filed from a domain the reader
    accepted. A form found there is neither read nor parsed again. The
    check across forms, for duplicate actions, runs on every call.
    """
    b = _Builder()
    memo = forms if forms is not None else {}
    found = split_define(text)
    if found is None:
        name, sections = _header(b, read_one(text), "domain")
        header, action_nodes = _domain_header(b, name, sections)
        actions = [(None, node, node) for node in action_nodes]
    else:
        header, actions = _read_forms(b, text, found, memo)

    name, requirements, types, constants, predicates = header
    pred_table = {decl.name: decl for decl in predicates}

    const_names = frozenset(c.name for c in constants)
    parsed: list[ActionSchema] = []
    action_names: set[str] = set()
    # `where` is the action's node, or its unread form: both carry its position.
    for action_key, node, where in actions:
        act = memo.get(action_key)
        if act is None:
            dirty = len(b.diagnostics)
            act = _parse_action(b, node, pred_table, const_names)
            if act is None:
                continue
            if action_key is not None and len(b.diagnostics) == dirty:
                memo[action_key] = act
        _repeated(b, action_names, act.name, where, f"action '{act.name}'")
        parsed.append(act)

    b.fail_if_dirty()
    return DomainAst(
        name=name,
        requirements=requirements,
        types=types,
        constants=constants,
        predicates=predicates,
        actions=tuple(parsed),
    )


def _form_keys(text: str, found: list) -> tuple:
    """The memo layout of a text that `split_define` split into `found`:
    the header's key, which is the tuple of its form texts (the `(domain
    NAME)` form and every section but `:action`, in order), those forms,
    and (key, form) for each action, its key being (the header's key, its
    form text)."""
    _, name_form, *rest = found
    header_forms = [name_form] + [f for f in rest if f.head != ":action"]
    key = tuple(text[f.start : f.end] for f in header_forms)
    actions = [((key, text[f.start : f.end]), f) for f in rest if f.head == ":action"]
    return key, header_forms, actions


def file_forms(domain: DomainAst, text: str, forms: dict) -> None:
    """File `domain`'s header and actions in `forms`, a `parse_domain` memo,
    under the keys `parse_domain(text, forms)` would use, where `text` is
    `print_canonical(domain)`; nothing is read or parsed. This is exact for
    a domain the reader accepted, or one equal to it, whose canonical print
    parses back to it. Nothing is filed when `text` does not split into
    forms, or its `:action` forms are not as many as the domain's actions."""
    found = split_define(text)
    if found is None:
        return
    key, _, actions = _form_keys(text, found)
    if len(actions) != len(domain.actions):
        return
    forms[key] = (domain.name, domain.requirements, domain.types, domain.constants, domain.predicates)
    for (action_key, _), action in zip(actions, domain.actions):
        forms[action_key] = action


def _read_forms(b: _Builder, text: str, found: list, memo: dict) -> tuple:
    """The header and the (memo key, node, form) of each action of a text
    that `split_define` split into `found`. Only the forms `memo` lacks are
    read, all of them before any is parsed, in document order; a header
    parsed without a diagnostic goes into `memo`. The node of an action
    found in `memo` is None."""
    key, header_forms, actions = _form_keys(text, found)
    header = memo.get(key)
    todo = [f for action_key, f in actions if action_key not in memo]
    if header is None:
        todo += header_forms
    nodes = {f.start: read_one(text, f.start, f.end, f.line, f.col) for f in sorted(todo)}
    if header is None:
        # `_header` checks the `(define (domain NAME)` shape on the part of
        # the tree it reads.
        define = found[0]
        define_atom = SAtom("define", define.line, define.col + 1)
        root = SList((define_atom, nodes[header_forms[0].start]), define.line, define.col)
        name, _ = _header(b, root, "domain")
        header, _ = _domain_header(b, name, [nodes[f.start] for f in header_forms[1:]])
        if not b.diagnostics:
            memo[key] = header
    return header, [(action_key, nodes.get(f.start), f) for action_key, f in actions]


def _type_on_cycle(types: tuple) -> str | None:
    """The first type of `types` that lies in its declared parent's
    ancestor set. A repeated declaration is reported apart, so only the
    first counts."""
    ancestors = type_ancestors(types)
    declared: set = set()
    for t in types:
        if t.name not in declared and isinstance(t.type, str) and t.name in ancestors[t.type]:
            return t.name
        declared.add(t.name)
    return None


def _domain_header(b: _Builder, name: str, sections: tuple) -> tuple:
    """The header parsed from a domain's sections, as (name, requirements,
    types, constants, predicates), and the `:action` sections among them,
    which are parsed after the header, against its predicates. Each type,
    constant and predicate is declared once, and no type is its own
    ancestor."""
    requirements: list[str] = []
    types: tuple = ()
    constants: tuple = ()
    predicates: list[PredicateDecl] = []
    action_nodes: list[SList] = []
    once: set = set()  # the once-only sections met so far
    declared: set = set()  # the predicates declared so far

    for head, section in _sections(b, sections):
        if head in (":types", ":constants") and _repeated(b, once, head, section, f"'{head}'"):
            continue
        if head == ":requirements":
            requirements += _requirements(b, section)
        elif head == ":types":
            types = _typed_names(b, section.items[1:], variables=False, where=":types", declares="type")
            cycle = _type_on_cycle(types)
            if cycle is not None:
                b.diag(E.TYPE_ERROR, f"type '{cycle}' is its own ancestor", section)
        elif head == ":constants":
            constants = _typed_names(
                b, section.items[1:], variables=False, where=":constants", declares="constant"
            )
        elif head == ":predicates":
            for item in section.items[1:]:
                if not isinstance(item, SList) or not item.items or not isinstance(item.items[0], SAtom):
                    b.diag(E.SYNTAX, "expected (name ?v ...) predicate declaration", item)
                    continue
                pred = item.items[0].text
                _repeated(b, declared, pred, item, f"predicate '{pred}'")
                params = _typed_names(
                    b, item.items[1:], variables=True, where="predicate parameters", declares="parameter"
                )
                predicates.append(PredicateDecl(pred, params))
        elif head == ":action":
            action_nodes.append(section)
        else:
            b.diag(E.UNSUPPORTED, f"section '{head}' is not supported", section)

    header = (name, frozenset(requirements), types, constants, tuple(predicates))
    return header, action_nodes


def _parse_action(
    b: _Builder, node: SList, predicates: dict, constants: frozenset
) -> ActionSchema | None:
    if len(node.items) < 2 or not isinstance(node.items[1], SAtom):
        b.diag(E.SYNTAX, "expected (:action NAME ...)", node)
        return None
    name = node.items[1].text
    params: tuple = ()
    # The first :parameters the keyword loop reaches binds its names
    # wherever it stands. A malformed one leaves `bound` None: variables go
    # unchecked, so its fault is reported once.
    bound: frozenset | None = frozenset()
    for i in range(2, len(node.items) - 1, 2):
        key_node, value = node.items[i], node.items[i + 1]
        if not isinstance(key_node, SAtom):
            break
        if key_node.text == ":parameters":
            if isinstance(value, SList):
                params = _typed_names(b, value.items, variables=True, where=":parameters", declares="parameter")
                bound = frozenset(p.name for p in params)
            else:
                b.diag(E.SYNTAX, ":parameters expects a (...) list", value)
                bound = None
            break
    precondition: Formula = And()
    effect: Formula = And()
    once: set = set()  # the keywords met so far, each allowed once
    for i in range(2, len(node.items), 2):
        key_node = node.items[i]
        key = _expect_atom(b, key_node, "action keyword")
        if key is None:
            break
        if i + 1 >= len(node.items):
            b.diag(E.SYNTAX, f"dangling keyword in action '{name}'", key_node)
            break
        value = node.items[i + 1]
        if _repeated(b, once, key, key_node, f"'{key}' in action '{name}'"):
            continue
        if key in (":precondition", ":effect") and isinstance(value, SList) and not value.items:
            continue  # PDDL 3.1's <emptyOr>: `()` is the empty conjunction
        if key == ":precondition":
            precondition = _formula(_FormulaCtx(b, "pre", predicates, constants, bound, name), value)
        elif key == ":effect":
            effect = _formula(_FormulaCtx(b, "eff", predicates, constants, bound, name), value)
        elif key != ":parameters":  # read above
            b.diag(E.UNSUPPORTED, f"action keyword '{key}' is not supported", key_node)
    return ActionSchema(name, params, precondition, effect)


# -- problems -----------------------------------------------------------------


def parse_problem(text: str) -> ProblemAst:
    """Parse a problem; cross-checks against a domain happen in `link`."""
    b = _Builder()
    root = read_one(text)
    name, sections = _header(b, root, "problem")

    domain_name = ""
    objects: tuple = ()
    init: list[Atom] = []
    goal: Formula | None = None
    once: set = set()  # the once-only sections met so far

    for head, section in _sections(b, sections):
        if head in (":domain", ":objects", ":goal") and _repeated(b, once, head, section, f"'{head}'"):
            continue
        if head == ":domain":
            if len(section.items) == 2 and isinstance(section.items[1], SAtom):
                domain_name = section.items[1].text
            else:
                b.diag(E.SYNTAX, "expected (:domain NAME)", section)
        elif head == ":requirements":
            _requirements(b, section)
        elif head == ":objects":
            objects = _typed_names(
                b, section.items[1:], variables=False, where=":objects",
                declares="object", repeat=E.DUPLICATE_OBJECT,
            )
        elif head == ":init":
            ctx = _FormulaCtx(b, "init", None, None, frozenset(), name)
            for item in section.items[1:]:
                if not isinstance(item, SList) or not item.items or not isinstance(item.items[0], SAtom):
                    b.diag(E.SYNTAX, "init entries must be ground atoms", item)
                elif item.items[0].text in _NOT_INIT_HEADS:
                    b.diag(E.UNSUPPORTED, f"'{item.items[0].text}' is not allowed in :init", item)
                else:
                    init.append(_atom(ctx, item))
        elif head == ":goal":
            if len(section.items) != 2:
                b.diag(E.SYNTAX, "expected (:goal FORMULA)", section)
                continue
            ctx = _FormulaCtx(b, "goal", None, None, frozenset(), name)
            goal = _formula(ctx, section.items[1])
        else:
            b.diag(E.UNSUPPORTED, f"section '{head}' is not supported in problems", section)

    if not domain_name:
        b.diag(E.SYNTAX, "problem is missing its (:domain ...) section", root)
    if goal is None:
        b.diag(E.SYNTAX, "problem is missing its (:goal ...) section", root)
    b.fail_if_dirty()
    assert goal is not None
    return ProblemAst(name, domain_name, objects, frozenset(init), goal)


# -- linking ------------------------------------------------------------------


def link(domain: DomainAst, problem: ProblemAst) -> LinkedTask:
    """Cross-validate a domain/problem pair; raises PddlError on mismatch.

    Link diagnostics carry position 0:0 because they are computed from the
    ASTs, after source positions are gone.
    """
    b = _Builder()
    if problem.domain_name != domain.name:
        b.diag(
            E.DOMAIN_NAME_MISMATCH,
            f"problem names domain '{problem.domain_name}', expected '{domain.name}'",
        )
        b.fail_if_dirty()

    ancestors = type_ancestors(domain.types)
    # The known types: the map's keys, and the implicit types that
    # parameters and constants name.
    known = set(ancestors)
    named = [p.type for decl in (*domain.predicates, *domain.actions) for p in decl.params]
    for ref in named + [c.type for c in domain.constants]:
        known.update(ref if isinstance(ref, tuple) else (ref,))
    term_types = object_types(domain, problem)
    constant_names = {c.name for c in domain.constants}
    for o in problem.objects:
        if o.name in constant_names:
            b.diag(E.DUPLICATE_OBJECT, f"object '{o.name}' collides with a domain constant")
        for t in o.type if isinstance(o.type, tuple) else (o.type,):
            if t not in known:
                b.diag(E.TYPE_ERROR, f"object '{o.name}' has unknown type '{t}'")

    def check_atom(atom: Atom, where: str) -> None:
        decl = domain.predicate(atom.name)
        if decl is None:
            b.diag(E.UNDECLARED_PREDICATE, f"predicate '{atom.name}' in {where} is not declared")
            return
        if decl.arity != len(atom.args):
            b.diag(
                E.ARITY_MISMATCH,
                f"predicate '{atom.name}' in {where} expects {decl.arity} arguments, got {len(atom.args)}",
            )
            return
        for arg, param in zip(atom.args, decl.params):
            if arg.startswith("?"):
                continue  # forall-bound goal variable, typed at grounding
            argt = term_types.get(arg)
            if argt is None:
                b.diag(E.UNDECLARED_OBJECT, f"'{arg}' in {where} is not a declared object")
            elif not fits_type(ancestors, argt, param.type):
                b.diag(
                    E.TYPE_ERROR,
                    f"'{arg}' has type '{argt}' but '{atom.name}' expects '{_type_str(param.type)}'",
                )

    for atom in sorted(problem.init, key=str):
        check_atom(atom, "init")

    # Goal diagnostics follow the goal's document order (`walk`).
    for f in walk(problem.goal):
        if isinstance(f, Atom):
            check_atom(f, "goal")
        elif isinstance(f, Eq):
            for term in (f.left, f.right):
                if not term.startswith("?") and term not in term_types:
                    b.diag(E.UNDECLARED_OBJECT, f"'{term}' in goal is not a declared object")
    b.fail_if_dirty()
    return LinkedTask(domain, problem)
