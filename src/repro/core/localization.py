"""Code localization (paper section 3).

Given the artifacts of the screening runs — the coverage difference, the
basic-block profile and the coarse memory trace — this module reconstructs the
memory layout, finds the *candidate instructions* that touch input/output
sized regions, and selects the filter function that contains the most of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dynamo.cfg import DynamicCFG
from ..dynamo.records import BlockProfile, MemoryTraceRecord
from ..x86.memory import STACK_TOP
from .regions import MemoryRegion, reconstruct_regions, samples_from_memtrace

#: A region qualifies as "comparable to the data size" when it is at least
#: this fraction of the estimated input/output size (paper section 3.2).
CANDIDATE_SIZE_FRACTION = 0.5
#: Size of the window below the initial stack pointer that is never treated as
#: an image buffer (spilled locals and arguments live there).
STACK_WINDOW = 0x10000


class LocalizationError(Exception):
    """Raised when the kernel cannot be localized."""


@dataclass
class LocalizationResult:
    """Everything the expression-extraction stage needs to know."""

    coverage_with: set[int]
    coverage_without: set[int]
    coverage_diff: set[int]
    profile: BlockProfile
    cfg: DynamicCFG
    regions: list[MemoryRegion]
    candidate_regions: list[MemoryRegion]
    candidate_instructions: set[int]
    filter_function: int
    filter_function_blocks: set[int]
    static_instruction_count: int = 0
    memtrace_records: int = 0
    notes: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        """The per-filter statistics row of the paper's Figure 6."""
        return {
            "total_blocks": len(self.coverage_with),
            "diff_blocks": len(self.coverage_diff),
            "filter_function_blocks": len(self.filter_function_blocks),
            "static_instructions": self.static_instruction_count,
        }


def is_stack_address(address: int) -> bool:
    return STACK_TOP - STACK_WINDOW <= address <= STACK_TOP


def find_candidate_regions(regions: list[MemoryRegion], data_size_estimate: int
                           ) -> list[MemoryRegion]:
    """Regions of size comparable to or larger than the input/output data."""
    threshold = max(1, int(data_size_estimate * CANDIDATE_SIZE_FRACTION))
    candidates = []
    for region in regions:
        if is_stack_address(region.start):
            continue
        if region.size >= threshold:
            candidates.append(region)
    return candidates


def find_candidate_instructions(candidate_regions: list[MemoryRegion]) -> set[int]:
    """Static instructions that access any candidate region."""
    instructions: set[int] = set()
    for region in candidate_regions:
        instructions.update(region.instructions)
    return instructions


def select_filter_function(cfg: DynamicCFG, candidate_instructions: set[int]
                           ) -> tuple[int, set[int]]:
    """Pick the function containing the most candidate static instructions.

    Returns the function entry address and the set of profiled blocks that
    belong to it (paper section 3.3).
    """
    votes: dict[int, set[int]] = {}
    for instruction in candidate_instructions:
        function = cfg.function_of_instruction(instruction)
        if function is None:
            continue
        votes.setdefault(function, set()).add(instruction)
    if not votes:
        raise LocalizationError("no function contains candidate instructions")
    best = max(votes, key=lambda fn: len(votes[fn]))
    return best, cfg.blocks_in_function(best)


def localize(coverage_with: set[int], coverage_without: set[int],
             profile: BlockProfile, memtrace: list[MemoryTraceRecord],
             data_size_estimate: int) -> LocalizationResult:
    """Run the full code-localization stage from the screening artifacts."""
    diff = set(coverage_with) - set(coverage_without)
    if not diff:
        raise LocalizationError("coverage difference is empty - did the kernel run?")
    cfg = DynamicCFG(profile)
    samples = samples_from_memtrace(memtrace)
    regions = reconstruct_regions(samples)
    candidate_regions = find_candidate_regions(regions, data_size_estimate)
    if not candidate_regions:
        raise LocalizationError("no memory region is comparable to the data size")
    candidate_instructions = find_candidate_instructions(candidate_regions)
    filter_function, blocks = select_filter_function(cfg, candidate_instructions)
    return LocalizationResult(
        coverage_with=coverage_with, coverage_without=coverage_without,
        coverage_diff=diff, profile=profile, cfg=cfg, regions=regions,
        candidate_regions=candidate_regions,
        candidate_instructions=candidate_instructions,
        filter_function=filter_function, filter_function_blocks=blocks,
        memtrace_records=len(memtrace))
