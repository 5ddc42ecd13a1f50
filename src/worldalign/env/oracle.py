"""Ground-truth rule and edge emission from a world config.

These functions re-express the active tables as rule-language texts and
knowledge-graph edges.  They are the privileged test oracle: a proposer
backed by them simulates an ideal inductive reasoner.
"""
from __future__ import annotations

from ..graphs import KgEdge
from .config import WorldConfig


def rules_for_config(config: WorldConfig) -> list[str]:
    """Emit the complete rule set equivalent to the config's effective
    recipes, tool tiers, survival traits and mining table."""
    tables = config.effective()
    rules: list[str] = []

    rules.append(
        'RULE gt_mine_target_near FOR mine: FAIL IF NOT (action.args[block_name] in near_objects) '
        'FEEDBACK "Cannot mine {block_name}: none within reach." '
        'SUGGEST "Explore to find {block_name} and stand next to it."'
    )
    rules.append(
        'RULE gt_attack_target_near FOR attack: FAIL IF NOT (action.args[creature] in near_objects) '
        'FEEDBACK "Cannot attack {creature}: none within reach." '
        'SUGGEST "Explore to find {creature} and stand next to it."'
    )
    rules.append(
        'RULE gt_place_open_cell FOR place: FAIL IF (obs.in_front != "grass") AND (obs.in_front != "sand") '
        'FEEDBACK "Cannot place {block_name}: the cell ahead is blocked." '
        'SUGGEST "Turn toward an open grass or sand cell before placing."'
    )
    hostiles = tables.hostiles()
    if hostiles:
        clause = " OR ".join(f'("{name}" in near_objects)' for name in hostiles)
        rules.append(
            f"RULE gt_sleep_safe FOR sleep: FAIL IF {clause} "
            'FEEDBACK "Too dangerous to sleep with a threat nearby." '
            'SUGGEST "Attack the nearby threat before sleeping."'
        )
    # Two-sided models: they assert success exactly when the graph-backed
    # requirements hold, so they both veto doomed crafts and override wrongly
    # pessimistic base predictions.
    rules.append(
        'RULE gt_make_model FOR make: SUCCEED ONLY IF kg_requires(action.args[tool_name]) satisfied_by inventory '
        'FEEDBACK "Cannot make {tool_name}: requirements not met." '
        'SUGGEST "Missing for {tool_name}: {missing}."'
    )
    rules.append(
        'RULE gt_place_model FOR place: SUCCEED ONLY IF (kg_requires(action.args[block_name]) satisfied_by inventory) '
        'AND ((obs.in_front == "grass") OR (obs.in_front == "sand")) '
        'FEEDBACK "Cannot place {block_name} here." '
        'SUGGEST "Missing for {block_name}: {missing}. The cell ahead must be open grass or sand."'
    )
    for block in sorted(tables.mining):
        rule = tables.mining[block]
        if rule.tool is not None:
            rules.append(
                f"RULE gt_mine_tool_{block} FOR mine: FAIL IF (action.args[block_name] == \"{block}\") "
                f"AND (NOT has_tool_at_least(\"{rule.tool}\")) "
                f'FEEDBACK "Mining {block} needs {rule.tool} or better." '
                f'SUGGEST "Craft {rule.tool} or a better pickaxe first."'
            )
    unminable = sorted(set(tables.terrain_table) - set(tables.mining)) + ["table", "furnace"]
    for block in unminable:
        rules.append(
            f"RULE gt_mine_never_{block} FOR mine: FAIL IF action.args[block_name] == \"{block}\" "
            f'FEEDBACK "{block} cannot be mined." '
            f'SUGGEST "Target a different block than {block}."'
        )
    return rules


def kg_edges_for_config(config: WorldConfig) -> list[KgEdge]:
    """The config's recipe and mining tables re-expressed as edges."""
    tables = config.effective()
    edges: list[KgEdge] = []
    for product in sorted(tables.recipes):
        recipe = tables.recipes[product]
        for material, count in sorted(recipe.consumes.items()):
            edges.append(KgEdge(product, material, "consumes", count))
        for material, count in sorted(recipe.requires.items()):
            edges.append(KgEdge(product, material, "requires", count))
        if recipe.platform is not None:
            edges.append(KgEdge(product, recipe.platform, "requires", None))
    for block in sorted(tables.mining):
        edges.append(KgEdge(tables.mining[block].drop, block, "collects", None))
    return edges
