"""Color separation: the image->image derivation of Table 1.

"Printing a color image often requires a change in the color model as
when images are converted from an RGB format to a CMYK format. Since the
mapping from RGB into the CMYK color model is not unique, additional
information must be provided as parameters." (§4.2)

The parameter here is ``black_generation`` — how aggressively common ink
is moved to the K plate — standing in for the paper's separation tables.
The derivation's result is a CMYK still image whose four plates can also
be extracted individually (Figure 3a shows red/green/blue going to
cyan/magenta/yellow/black).
"""

from __future__ import annotations

import numpy as np

from repro.codecs.color import rgb_to_cmyk
from repro.core.derivation import (
    Derivation,
    DerivationCategory,
    derivation_registry,
)
from repro.core.media_types import MediaKind
from repro.errors import DerivationError

PLATES = ("cyan", "magenta", "yellow", "black")


def separate(image: np.ndarray, black_generation: float = 1.0) -> np.ndarray:
    """RGB -> CMYK separation (thin wrapper for discoverability)."""
    return rgb_to_cmyk(image, black_generation)


def plate(cmyk: np.ndarray, name: str) -> np.ndarray:
    """Extract one ink plate as a float32 plane in [0, 1]."""
    try:
        index = PLATES.index(name)
    except ValueError:
        raise DerivationError(
            f"unknown plate {name!r}; plates: {PLATES}"
        ) from None
    return cmyk[..., index]


def _expand_color_separation(inputs, params):
    from repro.media.objects import image_object

    source = inputs[0]
    if source.descriptor["color_model"] != "RGB":
        raise DerivationError(
            f"color separation expects an RGB image, got "
            f"{source.descriptor['color_model']}"
        )
    cmyk = separate(source.value(), params.get("black_generation", 1.0))
    obj = image_object(cmyk, f"{source.name}-cmyk", color_model="CMYK")
    return obj


def _describe_color_separation(inputs, params):
    source = inputs[0]
    descriptor = source.descriptor.with_updates(color_model="CMYK", depth=32)
    return source.media_type, descriptor


COLOR_SEPARATION = derivation_registry.register(Derivation(
    name="color-separation",
    category=DerivationCategory.CHANGE_OF_CONTENT,
    input_kinds=(MediaKind.IMAGE,),
    result_kind=MediaKind.IMAGE,
    expand=_expand_color_separation,
    describe=_describe_color_separation,
    optional_params=("black_generation",),
    doc="Table 1: image -> image; RGB to CMYK with separation parameters.",
))
