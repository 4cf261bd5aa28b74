"""Seeded rule violators for the corpus workload.

Synthesized dialogs pass all six filter rules, so the filter's later rules
never run on them.  ``Injector`` breaks a stated share of a corpus, split
evenly over the six rules, so that each broken dialog fails exactly the
rule it was broken for and no earlier one:

  1. drop the closing user utterance, so the dialog ends on the agent
  2. replace the opener with one whose polarity is not confident
  3. replace the closer with one that is not confidently positive
  4. append a blocked topic word to a middle utterance
  5. append an entity-pattern match to a middle utterance
  6. append an offensive word to a middle utterance

Middle utterances feed neither the opener nor the closer test, so rules
4-6 leave rules 1-3 passing.  Replacement openers and closers are checked
against the classifier and thresholds the filter itself uses.
"""

from __future__ import annotations

import itertools
import re
from typing import Sequence

import numpy as np

from emoguide.corpus import Dialog, FilterRules, Utterance, apportion, bank_words
from emoguide.polarity import PolarityClassifier

# Strings shaped like the packaged entity patterns (phone numbers, titles
# with names, handles); only those some configured pattern matches are used.
ENTITY_CANDIDATES = ("call 555-0142", "ask mr. lee", "see dr. park", "ping @sam_42", "ask mrs. day")


class Injector:
    def __init__(self, rules: FilterRules, classifier: PolarityClassifier):
        words = sorted(set(bank_words()))
        pairs = [" ".join(p) for p in itertools.product(words, repeat=2)]
        self.unconfident_openers = [
            text
            for text in pairs
            if max(classifier(text.split()).as_tuple()) <= rules.first_utt_threshold
        ]
        self.unpositive_closers = [
            text for text in pairs if classifier(text.split()).p_pos <= rules.last_utt_pos_threshold
        ]
        patterns = [re.compile(p, re.IGNORECASE) for p in rules.entity_patterns]
        self.entities = [e for e in ENTITY_CANDIDATES if any(p.search(e) for p in patterns)]
        self.topics = sorted(rules.topic_blocklist)
        self.offensive = sorted(rules.offensive_blocklist)
        for name in ("unconfident_openers", "unpositive_closers", "entities", "topics", "offensive"):
            if not getattr(self, name):
                raise ValueError(f"the filter rules leave no way to inject {name}")

    def inject(
        self, dialogs: Sequence[Dialog], share: float, rng: np.random.Generator
    ) -> tuple[list[Dialog], list[int]]:
        """Break ``round(share * len(dialogs))`` dialogs; returns the corpus and
        the number broken for each rule, in rule order."""
        out = list(dialogs)
        counts = apportion([1.0] * 6, round(share * len(out)))
        victims = rng.permutation(len(out))[: sum(counts)]
        rule_of = np.repeat(np.arange(6), counts)
        for index, rule in zip(victims.tolist(), rule_of.tolist()):
            out[index] = self._break(out[index], rule, rng)
        return out, counts

    def _break(self, dialog: Dialog, rule: int, rng: np.random.Generator) -> Dialog:
        utts = list(dialog.utterances)
        if len(utts) < 5 or len(utts) % 2 == 0:
            raise ValueError(f"{dialog.source_id}: need a user-closed dialog of 5+ utterances")
        pick = lambda options: options[int(rng.integers(len(options)))]
        if rule == 0:
            utts = utts[:-1]
        elif rule == 1:
            utts[0] = Utterance(utts[0].speaker, pick(self.unconfident_openers))
        elif rule == 2:
            utts[-1] = Utterance(utts[-1].speaker, pick(self.unpositive_closers))
        else:
            extra = pick((self.topics, self.entities, self.offensive)[rule - 3])
            k = 1 + int(rng.integers(len(utts) - 2))
            utts[k] = Utterance(utts[k].speaker, f"{utts[k].text} {extra}")
        return Dialog(source_id=dialog.source_id, utterances=tuple(utts))
