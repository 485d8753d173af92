package core

// TrainSet exposes Train's modelling stages on a given sample set to
// the external tests, which edit the arena before training.
var TrainSet = trainSet
