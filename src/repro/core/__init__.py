"""Core association-rule mining substrate: serial Apriori and its parts.

Public surface of the paper's Section II machinery plus the candidate
partitioners the parallel formulations build on.
"""

from .apriori import Apriori, AprioriResult, PassTrace, min_support_count
from .bitmap import ItemBitmap
from .candidates import (
    first_item_histogram,
    generate_candidates,
    generate_candidates_2,
)
from .counting import count_naive, count_with_hashtree, support_count
from .fastnp import FastNumpyCounter, PackedBitmapCache, PackedBitmaps
from .hashtree import HashTree, HashTreeStats, TreeShape
from .hashtree_flat import FlatHashTree
from .kernels import KERNELS, make_counter, validate_kernel
from .pass2 import PairCounter
from .items import Item, Itemset, is_subset, itemset, validate_itemset
from .partition import (
    CandidatePartition,
    bin_pack,
    partition_by_first_item,
    partition_round_robin,
)
from .rules import AssociationRule, generate_rules, rules_from_result
from .streaming import StreamingApriori
from .summaries import closed_itemsets, maximal_itemsets, support_histogram
from .transaction import DBStats, TransactionDB

__all__ = [
    "Apriori",
    "AprioriResult",
    "AssociationRule",
    "CandidatePartition",
    "DBStats",
    "FastNumpyCounter",
    "FlatHashTree",
    "HashTree",
    "HashTreeStats",
    "Item",
    "ItemBitmap",
    "Itemset",
    "KERNELS",
    "PackedBitmapCache",
    "PackedBitmaps",
    "PairCounter",
    "PassTrace",
    "StreamingApriori",
    "TransactionDB",
    "TreeShape",
    "bin_pack",
    "closed_itemsets",
    "count_naive",
    "count_with_hashtree",
    "first_item_histogram",
    "generate_candidates",
    "generate_candidates_2",
    "generate_rules",
    "is_subset",
    "itemset",
    "make_counter",
    "maximal_itemsets",
    "min_support_count",
    "partition_by_first_item",
    "partition_round_robin",
    "rules_from_result",
    "support_count",
    "support_histogram",
    "validate_itemset",
    "validate_kernel",
]
