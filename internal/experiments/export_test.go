package experiments

// MLPMemoLen exposes the trained-classifier memo's entry count to the
// external bound test, which drives it through the sim facade.
func MLPMemoLen() int { return mlpCache.lru.Len() }

// MLPMemoCap is the trained-classifier memo's cap.
const MLPMemoCap = mlpEntries
