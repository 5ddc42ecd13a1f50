"""Deterministic survival grid world and its configuration registry."""
from .config import (
    ACHIEVEMENTS,
    CONFIG_IDS,
    CreatureTraits,
    MAKEABLE,
    MineRule,
    Modification,
    PLACEABLE,
    Recipe,
    TARGET_CHAIN_ACHIEVEMENT,
    UnsolvableConfig,
    WorldConfig,
    check_solvable,
    load_config,
    make_config,
)
from .oracle import kg_edges_for_config, rules_for_config
from .world import MarsWorld, apply_effect

__all__ = [
    "ACHIEVEMENTS", "CONFIG_IDS", "CreatureTraits", "MAKEABLE", "MarsWorld",
    "MineRule", "Modification", "PLACEABLE", "Recipe", "TARGET_CHAIN_ACHIEVEMENT",
    "UnsolvableConfig", "WorldConfig", "apply_effect", "check_solvable",
    "kg_edges_for_config", "load_config", "make_config", "rules_for_config",
]
