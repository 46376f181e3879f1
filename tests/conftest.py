import gc


def _cyclic_garbage_after(call):
    """What the cyclic collector finds after call(), run with the collector
    off; a warm-up call first keeps one-time caches out of the count."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()
