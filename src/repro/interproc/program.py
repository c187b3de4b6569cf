"""Whole-program analysis orchestration.

:func:`analyze_program` runs the interprocedural phases over a bound
:class:`SourceFile`, then the per-unit dependence driver with the derived
providers wired in.  :class:`FeatureSet` exposes one boolean per analysis
capability — the exact levers of the experiences paper's Table 3 — so the
evaluation harness can measure which feature unlocks which program.

The pipeline is decomposed into stage functions (:func:`compute_summaries`,
:func:`kills_view`, :func:`build_providers`, :func:`unit_config`) that the
incremental engine (:mod:`repro.incremental`) calls independently, keeping
:func:`analyze_program` the from-scratch reference composition of the same
stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from ..dependence.driver import AnalysisConfig, UnitAnalysis, analyze_unit
from ..dependence.hierarchy import SharedPairMemo
from ..dependence.tests import Oracle
from ..fortran.ast_nodes import SourceFile
from .callgraph import CallGraph, build_callgraph
from .ipconst import compute_ip_constants
from .ipkill import KillInfo, compute_kills, privatizable_arrays
from .modref import ModRefInfo, PreciseEffects, compute_modref
from .sections import SectionInfo, compute_sections, make_section_provider


@dataclass(frozen=True)
class FeatureSet:
    """Analysis capabilities, mirroring the Table 3 columns.

    ``dependence`` is the base capability and cannot be turned off; the
    others default to the full Ped configuration.
    """

    modref: bool = True  # interprocedural scalar side effects (MOD/REF)
    sections: bool = True  # interprocedural regular sections
    ip_constants: bool = True  # interprocedural constants
    scalar_kill: bool = True  # scalar kill analysis (incl. interprocedural)
    array_kill: bool = True  # interprocedural array kill → privatization
    reductions: bool = True  # reduction idiom recognition
    inductions: bool = True  # auxiliary induction recognition
    symbolic: bool = True  # symbolic/affine subscript analysis
    control: bool = True  # control dependences

    @staticmethod
    def minimal() -> "FeatureSet":
        """Dependence testing only — the 'naive automatic tool' baseline."""

        return FeatureSet(
            modref=False,
            sections=False,
            ip_constants=False,
            scalar_kill=False,
            array_kill=False,
            reductions=False,
            inductions=False,
            symbolic=True,
            control=True,
        )

    def with_feature(self, name: str, value: bool) -> "FeatureSet":
        return replace(self, **{name: value})

    def needs_modref(self) -> bool:
        """MOD/REF summaries feed effects, sections and array kill."""

        return self.modref or self.sections or self.array_kill

    def needs_kills(self) -> bool:
        return self.scalar_kill or self.array_kill


@dataclass
class ProgramAnalysis:
    """All program-level artifacts plus per-unit analyses."""

    source: SourceFile
    features: FeatureSet
    callgraph: CallGraph
    modref: Dict[str, ModRefInfo] = field(default_factory=dict)
    sections: Dict[str, SectionInfo] = field(default_factory=dict)
    kills: Dict[str, KillInfo] = field(default_factory=dict)
    ip_constants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    units: Dict[str, UnitAnalysis] = field(default_factory=dict)

    def unit(self, name: str) -> UnitAnalysis:
        return self.units[name.lower()]

    def parallel_loop_count(self) -> int:
        return sum(len(ua.parallel_loops()) for ua in self.units.values())

    def loop_count(self) -> int:
        return sum(len(ua.loops) for ua in self.units.values())


@dataclass
class ProgramSummaries:
    """The four interprocedural summary families, one entry per unit.

    ``kills`` holds the *full* kill summaries; feature gating (scalar vs
    array kill) is applied by :func:`kills_view` at provider-construction
    time so a cached full summary can serve any feature combination.
    """

    modref: Dict[str, ModRefInfo] = field(default_factory=dict)
    kills: Dict[str, KillInfo] = field(default_factory=dict)
    sections: Dict[str, SectionInfo] = field(default_factory=dict)
    ip_constants: Dict[str, Dict[str, object]] = field(default_factory=dict)


def compute_summaries(cg: CallGraph, features: FeatureSet) -> ProgramSummaries:
    """Run every interprocedural summary phase the feature set demands."""

    s = ProgramSummaries()
    if features.needs_modref():
        s.modref = compute_modref(cg)
    if features.needs_kills():
        s.kills = compute_kills(cg)
    if features.sections:
        s.sections = compute_sections(cg)
    if features.ip_constants:
        s.ip_constants = compute_ip_constants(cg)
    return s


def kills_view(
    kills: Dict[str, KillInfo], features: FeatureSet
) -> Dict[str, KillInfo]:
    """Feature-restricted copy of the kill summaries: the scalar half is
    dropped unless ``scalar_kill``, the array half unless ``array_kill``."""

    return {
        name: KillInfo(
            set(info.scalars) if features.scalar_kill else set(),
            set(info.arrays) if features.array_kill else set(),
        )
        for name, info in kills.items()
    }


@dataclass
class UnitProviders:
    """Callables handed to the per-unit dependence driver."""

    effects: Optional[PreciseEffects] = None
    section_provider: Optional[Callable] = None
    arrays_fn: Optional[Callable] = None


def build_providers(
    cg: CallGraph,
    features: FeatureSet,
    modref: Dict[str, ModRefInfo],
    sections: Dict[str, SectionInfo],
    kills: Dict[str, KillInfo],
) -> UnitProviders:
    """Wire the summary dictionaries into the call-site translators the
    dependence driver consumes.  ``kills`` must already be the
    feature-restricted :func:`kills_view`."""

    providers = UnitProviders()
    if features.modref:
        providers.effects = PreciseEffects(
            cg, modref, kills if features.scalar_kill else None
        )
    if features.sections:
        providers.section_provider = make_section_provider(
            cg, sections, kills if features.array_kill else None
        )

    def arrays_fn(loop, unit):
        return privatizable_arrays(
            loop, unit, cg, kills if features.array_kill else None
        )

    providers.arrays_fn = arrays_fn
    return providers


def unit_config(
    name: str,
    features: FeatureSet,
    providers: UnitProviders,
    ip_constants: Dict[str, Dict[str, object]],
    oracle: Optional[Oracle],
    shared_memo=None,
) -> AnalysisConfig:
    """The per-unit driver configuration for one procedure."""

    return AnalysisConfig(
        effects=providers.effects,
        section_provider=providers.section_provider,
        oracle=oracle,
        inherited_constants=ip_constants.get(name),
        use_constants=True,
        use_kill=features.scalar_kill,
        use_reductions=features.reductions,
        use_inductions=features.inductions,
        control_deps=features.control,
        privatizable_arrays_fn=providers.arrays_fn
        if features.array_kill
        else None,
        shared_memo=shared_memo,
    )


def analyze_program(
    sf: SourceFile,
    features: Optional[FeatureSet] = None,
    oracle: Optional[Oracle] = None,
    oracles_by_unit: Optional[Dict[str, Oracle]] = None,
) -> ProgramAnalysis:
    """Analyze a bound source file with the given feature set.

    ``oracle`` (or ``oracles_by_unit``) injects user assertions into the
    symbolic machinery; sessions re-run this after each assertion or edit.
    """

    features = features or FeatureSet()
    cg = build_callgraph(sf)
    summaries = compute_summaries(cg, features)
    kv = kills_view(summaries.kills, features)
    pa = ProgramAnalysis(
        sf,
        features,
        cg,
        modref=summaries.modref,
        sections=summaries.sections,
        kills=kv,
        ip_constants=summaries.ip_constants,
    )
    providers = build_providers(cg, features, summaries.modref, summaries.sections, kv)
    # One program-scoped memo: units repeating a subscript shape (with
    # the same oracle facts and PARAMETER slice) replay each other's
    # verdicts instead of re-running the test hierarchy.
    shared = SharedPairMemo()
    for name, unit in cg.units.items():
        unit_oracle = (oracles_by_unit or {}).get(name, oracle)
        config = unit_config(
            name, features, providers, summaries.ip_constants, unit_oracle,
            shared_memo=shared,
        )
        pa.units[name] = analyze_unit(unit, config)
    return pa
