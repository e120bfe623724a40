"""A small attention encoder-decoder on ``boxparse.autodiff``.

The encoder is a tanh RNN over source word embeddings. The decoder is a
tanh RNN fed with the previous target token and the previous attention
context; it attends over the encoder states with dot-product scores and
predicts the next token of the linearized DRS from its state and the
context. Training is teacher-forced, one example per step.
"""

from __future__ import annotations

import numpy as np

BOS, EOS, UNK = "<s>", "</s>", "<unk>"


class Vocab:
    def __init__(self, sequences):
        self.items = [BOS, EOS, UNK] + sorted({t for s in sequences for t in s})
        self.index = {t: i for i, t in enumerate(self.items)}

    def ids(self, tokens) -> list[int]:
        unk = self.index[UNK]
        return [self.index.get(t, unk) for t in tokens]

    def __len__(self) -> int:
        return len(self.items)


class Seq2Seq:
    """``ad`` is the ``boxparse.autodiff`` module the model is built on."""

    def __init__(self, ad, n_src: int, n_tgt: int, d: int, rng: np.random.Generator):
        self.ad = ad
        self.d = d
        self.params = {
            "src_emb": ad.uniform((n_src, d), rng),
            "tgt_emb": ad.uniform((n_tgt, d), rng),
            "enc_w": ad.uniform((d, 2 * d), rng),
            "enc_b": ad.zeros((d,), requires_grad=True),
            "dec_w": ad.uniform((d, 3 * d), rng),
            "dec_b": ad.zeros((d,), requires_grad=True),
            "out_w": ad.uniform((n_tgt, 2 * d), rng),
            "out_b": ad.zeros((n_tgt,), requires_grad=True),
        }

    def loss(self, src: list[int], tgt: list[int]):
        """The scalar Tensor of the mean cross-entropy of ``tgt + [EOS]``
        given ``src``; BOS is 0, EOS is 1."""
        ad, p = self.ad, self.params
        h = ad.zeros((self.d,))
        states = []
        for i in src:
            x = ad.embedding_lookup(p["src_emb"], i)
            h = ad.tanh(ad.add(ad.matmul(p["enc_w"], ad.concat([x, h])), p["enc_b"]))
            states.append(h)
        picks = [ad.tensor(np.eye(len(states))[k]) for k in range(len(states))]
        s, context = h, ad.zeros((self.d,))
        prev = 0
        losses = []
        for y in tgt + [1]:
            e = ad.embedding_lookup(p["tgt_emb"], prev)
            s = ad.tanh(ad.add(ad.matmul(p["dec_w"], ad.concat([e, s, context])), p["dec_b"]))
            weights = ad.softmax(ad.concat([ad.dot(s, st) for st in states]))
            context = ad.sum_over([ad.mul(ad.dot(weights, pick), st)
                                   for pick, st in zip(picks, states)])
            logits = ad.add(ad.matmul(p["out_w"], ad.concat([s, context])), p["out_b"])
            losses.append(ad.softmax_cross_entropy(logits, y))
            prev = y
        return ad.scale(ad.sum_over(losses), 1.0 / len(losses))
